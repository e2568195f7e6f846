package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Simulator runs one wormhole network simulation for a stream set: one
// Kernel over every stream, fed by the periodic (or sporadic) release
// schedule.
type Simulator struct {
	set     *stream.Set
	cfg     Config
	k       *Kernel
	nextRel []int // per stream: next release time
	nextSeq []int
	jitter  *rand.Rand
	stats   *Result
}

// New builds a simulator for the given validated stream set.
func New(set *stream.Set, cfg Config) (*Simulator, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("sim: empty stream set")
	}
	c, err := cfg.WithDefaults(set.Len())
	if err != nil {
		return nil, err
	}
	ids := make([]int, set.Len())
	for i := range ids {
		ids[i] = i
	}
	s := &Simulator{
		set:     set,
		cfg:     c,
		nextRel: make([]int, set.Len()),
		nextSeq: make([]int, set.Len()),
		jitter:  rand.New(rand.NewSource(c.JitterSeed)),
		stats:   NewResult(set, c),
	}
	s.k = NewKernel(set, ids, c, s.stats)
	if c.Offsets != nil {
		copy(s.nextRel, c.Offsets)
	}
	return s, nil
}

// Run simulates the configured number of cycles and returns the
// collected statistics.
func (s *Simulator) Run() *Result {
	for s.k.Now() < s.cfg.Cycles {
		s.release()
		s.k.Step()
	}
	s.k.Finish()
	return s.stats
}

// release hands the kernel every message whose release time is the
// current cycle, drawing each sporadic gap as it goes (in stream order
// within a cycle, the order package eventsim replays).
func (s *Simulator) release() {
	now := s.k.Now()
	for i, st := range s.set.Streams {
		for s.nextRel[i] <= now {
			s.k.Release(i, s.nextSeq[i], s.nextRel[i])
			s.nextSeq[i]++
			s.nextRel[i] += st.Period
			if s.cfg.SporadicJitter > 0 {
				s.nextRel[i] += s.jitter.Intn(s.cfg.SporadicJitter + 1)
			}
		}
	}
}

// Kernel is the exact cycle-level wormhole engine over a subset of a
// stream set: the links the subset's paths use, the messages it holds,
// and one Step per flit time. Simulator steps one Kernel over every
// stream; package eventsim steps one per conflict component while its
// messages contend. A stream's local index is its position in the ids
// passed to NewKernel. Releases are the caller's: the kernel only
// issues the messages it is handed.
type Kernel struct {
	cfg     Config
	stats   *Result
	streams []*stream.Stream // per local index

	// One contiguous array in scan order (channels sorted by From, To):
	// the cycle loop walks the links linearly, so adjacency matters.
	// Restricted to a subset of streams, the order is the full network's.
	links     []link
	pathLinks [][]*link // per local stream: the link at each hop of its path
	pathOrds  [][]int32 // per local stream: the ordinal of each path link
	prio      []int     // per local stream: VC level index (0 = lowest)

	// Per-link-ordinal arbitration state for the current cycle: bit
	// ord of candMask marks that candBest[ord] was folded this cycle
	// (collectCandidates); moveFlits consumes the mask word by word,
	// visiting winners in ascending ordinal order, and clears it for
	// the next cycle. The word sweep touches a handful of cache lines
	// regardless of how many links the network has.
	candMask []uint64
	candBest []candidate

	active  []*message
	retired []*message // delivered/dropped this cycle, pooled at cycle end
	free    []*message // recycled message instances
	waiting []*link    // links with headers pending a VC (see link.queued)
	stamp   int64
	now     int
	rl      int // per-hop router pipeline depth (set.RouterLatency)
}

// NewKernel builds the kernel of the streams ids (ascending) of set.
// cfg must have passed through WithDefaults; statistics land in res
// under each stream's global ID. Priority levels and VCs per link come
// from the whole set, not from ids: Li's scheme lets a header take any
// free VC at or below its level, so the VCs below it matter.
func NewKernel(set *stream.Set, ids []int, cfg Config, res *Result) *Kernel {
	k := &Kernel{cfg: cfg, stats: res, rl: set.RouterLatency}
	levels := set.PriorityLevels() // descending
	vcsPerLink := len(levels)
	if cfg.Arbiter == NonPreemptiveFIFO || cfg.Arbiter == NonPreemptivePriority {
		vcsPerLink = 1
	}
	// Only channels some path of the subset uses need router state.
	var chans []topology.Channel
	k.streams = make([]*stream.Stream, len(ids))
	k.prio = make([]int, len(ids))
	for li, id := range ids {
		st := set.Get(stream.ID(id))
		k.streams[li] = st
		i := sort.Search(len(levels), func(i int) bool { return levels[i] <= st.Priority })
		k.prio[li] = len(levels) - 1 - i
		chans = append(chans, st.Path.Channels...)
	}
	less := func(a, b topology.Channel) bool {
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	}
	sort.Slice(chans, func(i, j int) bool { return less(chans[i], chans[j]) })
	n := 0
	for i, ch := range chans {
		if i == 0 || ch != chans[n-1] {
			chans[n] = ch
			n++
		}
	}
	chans = chans[:n]
	k.links = make([]link, n)
	for i, ch := range chans {
		k.links[i] = link{ch: ch, vcs: make([]vc, vcsPerLink)}
	}
	k.candMask = make([]uint64, (n+63)/64)
	k.candBest = make([]candidate, n)
	// Hot paths index links by stream and hop instead of hashing
	// 16-byte Channel keys every cycle.
	k.pathLinks = make([][]*link, len(ids))
	k.pathOrds = make([][]int32, len(ids))
	for li, st := range k.streams {
		hop := make([]*link, len(st.Path.Channels))
		ords := make([]int32, len(st.Path.Channels))
		for i, ch := range st.Path.Channels {
			ord := sort.Search(n, func(j int) bool { return !less(chans[j], ch) })
			hop[i] = &k.links[ord]
			ords[i] = int32(ord)
		}
		k.pathLinks[li] = hop
		k.pathOrds[li] = ords
	}
	return k
}

// Now returns the current cycle.
func (k *Kernel) Now() int { return k.now }

// SetNow moves the clock to cycle t; a caller skips cycles in which the
// kernel holds nothing.
func (k *Kernel) SetNow(t int) { k.now = t }

// Held returns the number of messages the kernel holds. A kernel that
// holds none holds no VC and no pending header either.
func (k *Kernel) Held() int { return len(k.active) }

// Reserved reports whether some message the kernel holds has yet to
// finish crossing the link at hop of local stream li: one holds a VC
// there, waits for one, or will request one.
func (k *Kernel) Reserved(li, hop int) bool { return k.pathLinks[li][hop].need > 0 }

// NextStamp issues the next arrival stamp (the FIFO tie-breaker).
func (k *Kernel) NextStamp() int64 {
	k.stamp++
	return k.stamp
}

// Ord returns the scan ordinal of the link at hop of local stream li.
func (k *Kernel) Ord(li, hop int) int { return int(k.pathOrds[li][hop]) }

// AddFlits books n crossings of the link at hop of local stream li that
// happened outside the kernel.
func (k *Kernel) AddFlits(li, hop, n int) { k.pathLinks[li][hop].flits += n }

// Release activates message seq of local stream li, generated at
// genTime, and enqueues its header at the first channel of its path.
func (k *Kernel) Release(li, seq, genTime int) {
	m := k.newMessage(li, seq, genTime)
	m.arrival = k.NextStamp()
	for _, l := range m.links {
		l.need++
	}
	k.active = append(k.active, m)
	k.stats.PerStream[m.s.ID].Generated++
	k.addPending(m.links[0], m)
	k.trace(trace.Event{Cycle: k.now, Kind: trace.Release, Stream: m.s.ID, Seq: m.seq})
}

// Inject places a free-flowing message of local stream li mid-path at
// the start of the current cycle: crossed[i] flits have crossed hop i.
// Every hop it occupies holds the VC its scheme grants (its own level
// for Preemptive and Li, VC 0 otherwise), and a header not yet through
// waits for a VC with the given arrival stamp. Statistics already
// earned are the caller's to book. Requires RouterLatency 0.
func (k *Kernel) Inject(li, seq, genTime int, arrival int64, crossed []int) {
	if k.rl > 0 {
		panic("sim: Inject with a router pipeline")
	}
	m := k.newMessage(li, seq, genTime)
	m.arrival = arrival
	copy(m.crossed, crossed)
	v := 0
	if k.cfg.Arbiter == Preemptive || k.cfg.Arbiter == Li {
		v = m.prio
	}
	H, C := m.hops(), m.s.Length
	for m.lo < H && m.crossed[m.lo] >= C {
		m.lo++
	}
	for i := m.lo; i < H; i++ {
		l := m.links[i]
		l.need++
		if m.crossed[i] > 0 && m.crossed[i] < C {
			if l.vcs[v].owner != nil {
				panic(fmt.Sprintf("sim: Inject of %d/%d onto a held VC at %s", m.s.ID, m.seq, l.ch))
			}
			m.vcHeld[i] = v
			l.vcs[v].owner = m
		}
	}
	if h := m.headerAt(); h < H {
		k.addPending(m.links[h], m)
	}
	k.active = append(k.active, m)
}

// Step runs one cycle: deadline drops, the router pipeline, VC
// allocation, arbitration and flit movement, stall accounting, then
// message recycling and the clock.
func (k *Kernel) Step() {
	if k.cfg.DropLate {
		k.dropLate()
	}
	if k.rl > 0 {
		k.promote()
	}
	k.assignVCs()
	k.collectCandidates()
	k.moveFlits()
	k.accountStalls()
	// A link's best-candidate slot may still point at a message retired
	// this cycle, but moveFlits has already consumed and cleared its
	// mask bit, so the slot is never dereferenced again and the
	// instances are safe to reissue from the next cycle on.
	k.free = append(k.free, k.retired...)
	k.retired = k.retired[:0]
	k.now++
}

// Finish books the messages still in flight as unfinished and flushes
// the per-link activity counters; only channels that carried a flit
// appear in the map, as when it was updated per crossing.
func (k *Kernel) Finish() {
	k.stats.Unfinished += len(k.active)
	for _, m := range k.active {
		k.stats.PerStream[m.s.ID].Unfinished++
	}
	for i := range k.links {
		if l := &k.links[i]; l.flits > 0 {
			k.stats.PerChannel[l.ch] = ChannelStats{Flits: l.flits}
		}
	}
}

// newMessage issues a message instance, recycling a retired one when
// available. The per-hop counters share one backing array; both it and
// the message struct survive recycling.
func (k *Kernel) newMessage(li, seq, genTime int) *message {
	st := k.streams[li]
	hops := st.Path.Hops()
	n := 2 * hops
	if k.rl > 0 {
		n = 3 * hops
	}
	var m *message
	if j := len(k.free); j > 0 {
		m = k.free[j-1]
		k.free = k.free[:j-1]
	} else {
		m = &message{}
	}
	buf := m.buf
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	inflight := m.inflight
	*m = message{
		s:       st,
		links:   k.pathLinks[li],
		ords:    k.pathOrds[li],
		buf:     buf,
		seq:     seq,
		genTime: genTime,
		crossed: buf[0:hops:hops],
		vcHeld:  buf[hops : 2*hops : 2*hops],
		prio:    k.prio[li],
	}
	if k.rl > 0 {
		m.visible = buf[2*hops : 3*hops : 3*hops]
		if cap(inflight) < hops {
			inflight = make([][]int, hops)
		} else {
			inflight = inflight[:hops]
			for j := range inflight {
				inflight[j] = inflight[j][:0]
			}
		}
		m.inflight = inflight
	}
	for j := range m.vcHeld {
		m.vcHeld[j] = -1
	}
	return m
}

// addPending enqueues a header waiting for a VC on l and registers l
// in the waiting list assignVCs works from.
func (k *Kernel) addPending(l *link, m *message) {
	l.pending = append(l.pending, m)
	if !l.queued {
		l.queued = true
		k.waiting = append(k.waiting, l)
	}
}

// assignVCs runs the header VC-allocation policy on every link with
// waiting headers. Only links on the waiting list are visited; a link
// whose queue empties (or was emptied by removePending) drops off the
// list here. Per-link assignment is independent of the visit order, so
// working in list order rather than sorted link order changes nothing
// observable.
func (k *Kernel) assignVCs() {
	kept := k.waiting[:0]
	for _, l := range k.waiting {
		if len(l.pending) == 0 {
			l.queued = false
			continue
		}
		switch k.cfg.Arbiter {
		case Preemptive:
			// Each header may only take the VC of its own priority.
			sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := pathIndex(m, l)
				if l.vcs[m.prio].owner == nil {
					l.vcs[m.prio].owner = m
					m.vcHeld[idx] = m.prio
					k.trace(trace.Event{Cycle: k.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: m.prio})
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case Li:
			// A header may take the highest free VC numbered at or
			// below its priority.
			sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := pathIndex(m, l)
				got := -1
				for v := m.prio; v >= 0; v-- {
					if l.vcs[v].owner == nil {
						got = v
						break
					}
				}
				if got >= 0 {
					l.vcs[got].owner = m
					m.vcHeld[idx] = got
					k.trace(trace.Event{Cycle: k.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: got})
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case NonPreemptiveFIFO, NonPreemptivePriority:
			sortPending(l, k.cfg.Arbiter == NonPreemptivePriority)
			if l.vcs[0].owner == nil {
				m := l.pending[0]
				idx := pathIndex(m, l)
				l.vcs[0].owner = m
				m.vcHeld[idx] = 0
				// Shift in place: reslicing past the head would make
				// every later addPending reallocate the queue.
				l.pending = l.pending[:copy(l.pending, l.pending[1:])]
				k.trace(trace.Event{Cycle: k.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: 0})
			}
		}
		if len(l.pending) > 0 {
			kept = append(kept, l)
		} else {
			l.queued = false
		}
	}
	k.waiting = kept
}

// sortPending orders a link's waiting headers: by priority (descending)
// then arrival when byPriority is set, else pure arrival order. The
// queues are short and nearly sorted (new headers append at the tail),
// so a stable insertion sort beats sort.SliceStable and, unlike it,
// allocates nothing — this runs for every link with waiters every
// cycle.
func sortPending(l *link, byPriority bool) {
	p := l.pending
	for i := 1; i < len(p); i++ {
		m := p[i]
		j := i
		for j > 0 && pendingBefore(m, p[j-1], byPriority) {
			p[j] = p[j-1]
			j--
		}
		p[j] = m
	}
}

// pendingBefore reports whether a must be served before b.
func pendingBefore(a, b *message, byPriority bool) bool {
	if byPriority && a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.arrival < b.arrival
}

// pathIndex returns the index of link l within m's path. Headers only
// wait at the channel they are about to cross, so the header position
// identifies it.
func pathIndex(m *message, l *link) int {
	i := m.headerAt()
	if i >= m.hops() || m.links[i] != l {
		panic(fmt.Sprintf("sim: message %d/%d header not at link %s", m.s.ID, m.seq, l.ch))
	}
	return i
}

// collectCandidates registers, per link, every message with a flit that
// could cross it this cycle, folding the physical-channel arbitration
// in as it goes: each link keeps only the winning candidate — the one
// on the highest-numbered VC, ties to the earliest-discovered, exactly
// what a scan over a materialized candidate list would pick. Every VC
// holds at most one message, so candidates on one link occupy distinct
// VCs and the incremental maximum is order-independent.
func (k *Kernel) collectCandidates() {
	rl, depth := k.rl, k.cfg.BufferDepth
	for _, m := range k.active {
		C := m.s.Length
		crossed, vcHeld := m.crossed, m.vcHeld
		// VCs are held on the contiguous range starting at m.lo (the
		// prefix is released, everything past the header not yet
		// acquired), so the scan starts there and stops at the first
		// hop without a VC. A message waiting for its first VC costs
		// O(1). A held VC always has flits left to send: the tail
		// crossing is the moment the VC is released.
		for i := m.lo; i < len(crossed); i++ {
			if vcHeld[i] < 0 {
				break
			}
			if crossed[i] >= C {
				continue
			}
			// Flit availability: the source holds all flits; later
			// channels need a flit buffered at their input (and, with
			// a router pipeline, out of the pipeline).
			if i > 0 {
				avail := crossed[i-1]
				if rl > 0 {
					avail = m.visible[i]
				}
				if avail <= crossed[i] {
					continue
				}
			}
			// Downstream buffer space (the sink always accepts).
			// Flits still inside the next router's pipeline occupy
			// pipeline registers, not the VC buffer, so only flits
			// that have emerged (visible) count against the depth.
			if i+1 < len(crossed) {
				occ := crossed[i] - crossed[i+1]
				if rl > 0 {
					occ = m.visible[i+1] - crossed[i+1]
				}
				if occ >= depth {
					continue
				}
			}
			ord := m.ords[i]
			w, bit := ord>>6, uint64(1)<<(uint32(ord)&63)
			if k.candMask[w]&bit == 0 {
				k.candMask[w] |= bit
				k.candBest[ord] = candidate{m: m, idx: i}
			} else if b := &k.candBest[ord]; vcHeld[i] > b.m.vcHeld[b.idx] {
				k.candBest[ord] = candidate{m: m, idx: i}
			}
			m.hadCandidate = true
		}
	}
}

// moveFlits advances the winning flit of every link that received a
// candidate this cycle. All decisions were taken against start-of-cycle
// state (collectCandidates), so flits of one message advance on several
// links in the same cycle — the wormhole pipeline. Arbitration already
// happened incrementally during collection; under the strict physical-
// priority rule the winner additionally transmits only when it sits on
// the highest occupied VC (the paper's literal formulation: VC v
// obtains bandwidth only if every higher VC is completely free).
func (k *Kernel) moveFlits() {
	strict := k.cfg.StrictPhysicalPriority &&
		k.cfg.Arbiter != NonPreemptiveFIFO && k.cfg.Arbiter != NonPreemptivePriority
	for w, word := range k.candMask {
		if word == 0 {
			continue
		}
		k.candMask[w] = 0
		for ; word != 0; word &= word - 1 {
			ord := w<<6 + bits.TrailingZeros64(word)
			c := k.candBest[ord]
			l := &k.links[ord]
			if strict {
				top := -1
				for v := len(l.vcs) - 1; v >= 0; v-- {
					if l.vcs[v].owner != nil {
						top = v
						break
					}
				}
				if c.m.vcHeld[c.idx] != top {
					continue
				}
			}
			k.advance(l, &c)
		}
	}
}

// advance moves one flit of m across path channel idx, handling header
// arrival at the next hop, tail VC release and delivery accounting.
func (k *Kernel) advance(l *link, c *candidate) {
	m, i := c.m, c.idx
	m.crossed[i]++
	m.advanced = true
	l.flits++
	if i+1 < m.hops() {
		if k.rl > 0 {
			// The flit enters the next router's pipeline; promote()
			// surfaces it (and the header's VC request) later.
			m.inflight[i+1] = append(m.inflight[i+1], k.now)
		} else if m.crossed[i] == 1 {
			// Header arrived at the next router: request a VC there.
			m.arrival = k.NextStamp()
			k.addPending(m.links[i+1], m)
		}
	}
	if m.crossed[i] == m.s.Length {
		// Tail passed: release this channel's VC.
		vcIdx := m.vcHeld[i]
		l.vcs[vcIdx].owner = nil
		l.need--
		m.vcHeld[i] = -1
		if i == m.lo {
			m.lo++
		}
		if k.cfg.Tracer != nil {
			k.trace(trace.Event{Cycle: k.now + 1, Kind: trace.VCRelease, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: vcIdx})
		}
		if i == m.hops()-1 {
			k.deliver(m)
		}
	}
}

// promote moves flits out of the router pipelines: a flit that crossed
// channel i-1 during cycle ts becomes available at channel i's input at
// cycle ts + 1 + RouterLatency (the +1 matches the zero-latency model,
// where a crossing is visible the following cycle). The header's
// arrival additionally enqueues its VC request.
func (k *Kernel) promote() {
	for _, m := range k.active {
		for i := 1; i < m.hops(); i++ {
			q := m.inflight[i]
			for len(q) > 0 && k.now-q[0] >= 1+k.rl {
				q = q[1:]
				m.visible[i]++
				if m.visible[i] == 1 {
					m.arrival = k.NextStamp()
					k.addPending(m.links[i], m)
				}
			}
			m.inflight[i] = q
		}
	}
}

// dropLate aborts every in-flight message older than its deadline:
// held VCs are released, pending-header entries withdrawn, and the
// message retired as Dropped.
func (k *Kernel) dropLate() {
	kept := k.active[:0]
	for _, m := range k.active {
		if k.now-m.genTime <= m.s.Deadline {
			kept = append(kept, m)
			continue
		}
		h := m.headerAt()
		if h < m.hops() && m.vcHeld[h] < 0 {
			// The header is queued for a VC somewhere: withdraw it.
			m.links[h].removePending(m)
		}
		for i := m.lo; i < m.hops(); i++ {
			l := m.links[i]
			l.need--
			if vcIdx := m.vcHeld[i]; vcIdx >= 0 {
				l.vcs[vcIdx].owner = nil
				m.vcHeld[i] = -1
				k.trace(trace.Event{Cycle: k.now, Kind: trace.VCRelease, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: vcIdx})
			}
		}
		k.stats.PerStream[m.s.ID].Dropped++
		k.retired = append(k.retired, m)
	}
	k.active = kept
}

// accountStalls classifies, for every message still in flight, why it
// made no progress this cycle: waiting for a virtual channel, losing
// the physical-channel arbitration, or blocked on downstream buffers
// (the classic wormhole hold-and-wait). The counts land in the
// per-stream statistics and decompose observed latency into its
// blocking causes.
func (k *Kernel) accountStalls() {
	for _, m := range k.active {
		if m.genTime >= k.cfg.Warmup {
			st := &k.stats.PerStream[m.s.ID]
			switch {
			case m.advanced:
				st.ProgressCycles++
			case m.hadCandidate:
				st.ArbStallCycles++
			case func() bool { h := m.headerAt(); return h < m.hops() && m.vcHeld[h] < 0 }():
				st.VCStallCycles++
			default:
				st.BufferStallCycles++
			}
		}
		if k.cfg.DeadlockThreshold > 0 {
			holdsVC := false
			for _, v := range m.vcHeld {
				if v >= 0 {
					holdsVC = true
					break
				}
			}
			if m.advanced || !holdsVC {
				m.stale = 0
			} else {
				m.stale++
				if m.stale >= k.cfg.DeadlockThreshold && !m.flagged {
					m.flagged = true
					k.stats.PerStream[m.s.ID].DeadlockSuspects++
					// Kernels sharing one Result run one after another,
					// so keep the earliest cycle, not the first written.
					if f := k.stats.FirstDeadlockCycle; f < 0 || k.now < f {
						k.stats.FirstDeadlockCycle = k.now
					}
				}
			}
		}
		m.advanced = false
		m.hadCandidate = false
	}
}

// trace emits an event if a tracer is configured.
func (k *Kernel) trace(e trace.Event) {
	if k.cfg.Tracer != nil {
		k.cfg.Tracer.Event(e)
	}
}

// deliver records a completed message and retires it.
func (k *Kernel) deliver(m *message) {
	latency := k.now + 1 - m.genTime // the flit crosses during cycle now..now+1
	k.trace(trace.Event{Cycle: k.now + 1, Kind: trace.Deliver, Stream: m.s.ID, Seq: m.seq})
	st := &k.stats.PerStream[m.s.ID]
	st.Delivered++
	if m.genTime >= k.cfg.Warmup {
		st.Observe(latency, m.s.Deadline)
	}
	for i, a := range k.active {
		if a == m {
			k.active = append(k.active[:i], k.active[i+1:]...)
			break
		}
	}
	k.retired = append(k.retired, m)
}
