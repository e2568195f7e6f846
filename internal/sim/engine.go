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

// Simulator runs one wormhole network simulation for a stream set.
type Simulator struct {
	set *stream.Set
	cfg Config

	links     map[topology.Channel]*link
	linkOrder []*link
	pathLinks [][]*link   // per stream: the link at each hop of its path
	pathOrds  [][]int32   // per stream: the ordinal of each path link
	prioIdx   map[int]int // priority value -> VC level index (0 = lowest)
	levels    int

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
	nextRel []int      // per stream: next release time
	nextSeq []int
	stamp   int64
	now     int
	rl      int // per-hop router pipeline depth (set.RouterLatency)
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
	s := &Simulator{
		set:     set,
		cfg:     c,
		links:   make(map[topology.Channel]*link),
		prioIdx: make(map[int]int),
		nextRel: make([]int, set.Len()),
		nextSeq: make([]int, set.Len()),
		rl:      set.RouterLatency,
		jitter:  rand.New(rand.NewSource(c.JitterSeed)),
		stats:   NewResult(set, c),
	}
	// Priority levels, ascending: index 0 is the lowest priority.
	levels := set.PriorityLevels() // descending
	for i, p := range levels {
		s.prioIdx[p] = len(levels) - 1 - i
	}
	s.levels = len(levels)
	vcsPerLink := s.levels
	if c.Arbiter == NonPreemptiveFIFO || c.Arbiter == NonPreemptivePriority {
		vcsPerLink = 1
	}
	// Only channels actually used by some path need router state.
	seen := make(map[topology.Channel]bool)
	var chans []topology.Channel
	for _, st := range set.Streams {
		for _, ch := range st.Path.Channels {
			if !seen[ch] {
				seen[ch] = true
				chans = append(chans, ch)
			}
		}
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].From != chans[j].From {
			return chans[i].From < chans[j].From
		}
		return chans[i].To < chans[j].To
	})
	// One contiguous allocation in scan order: the cycle loop walks
	// the links linearly, so adjacency matters.
	arr := make([]link, len(chans))
	for i, ch := range chans {
		arr[i] = link{ch: ch, vcs: make([]vc, vcsPerLink)}
		s.links[ch] = &arr[i]
		s.linkOrder = append(s.linkOrder, &arr[i])
	}
	s.candMask = make([]uint64, (len(chans)+63)/64)
	s.candBest = make([]candidate, len(chans))
	// Hot paths index links by stream and hop instead of hashing
	// 16-byte Channel keys every cycle.
	s.pathLinks = make([][]*link, set.Len())
	s.pathOrds = make([][]int32, set.Len())
	ordOf := make(map[topology.Channel]int32, len(chans))
	for i, ch := range chans {
		ordOf[ch] = int32(i)
	}
	for _, st := range set.Streams {
		hop := make([]*link, len(st.Path.Channels))
		ords := make([]int32, len(st.Path.Channels))
		for i, ch := range st.Path.Channels {
			hop[i] = s.links[ch]
			ords[i] = ordOf[ch]
		}
		s.pathLinks[st.ID] = hop
		s.pathOrds[st.ID] = ords
	}
	if c.Offsets != nil {
		copy(s.nextRel, c.Offsets)
	}
	return s, nil
}

// Run simulates the configured number of cycles and returns the
// collected statistics.
func (s *Simulator) Run() *Result {
	for s.now = 0; s.now < s.cfg.Cycles; s.now++ {
		s.release()
		if s.cfg.DropLate {
			s.dropLate()
		}
		if s.rl > 0 {
			s.promote()
		}
		s.assignVCs()
		s.collectCandidates()
		s.moveFlits()
		s.accountStalls()
		// A link's best-candidate slot may still point at a message
		// retired this cycle, but moveFlits has already consumed and
		// cleared its mask bit, so the slot is never dereferenced
		// again and the instances are safe to reissue from the next
		// cycle on.
		s.free = append(s.free, s.retired...)
		s.retired = s.retired[:0]
	}
	s.stats.Unfinished = len(s.active)
	for _, m := range s.active {
		s.stats.PerStream[m.s.ID].Unfinished++
	}
	// Flush the per-link activity counters; only channels that carried
	// a flit appear in the map, as when it was updated per crossing.
	for _, l := range s.linkOrder {
		if l.flits > 0 {
			s.stats.PerChannel[l.ch] = ChannelStats{BusyCycles: l.busy, Flits: l.flits}
		}
	}
	return s.stats
}

// release activates every message whose release time is the current
// cycle and enqueues its header at the first channel of its path.
func (s *Simulator) release() {
	for i, st := range s.set.Streams {
		for s.nextRel[i] <= s.now {
			m := s.newMessage(st, s.nextSeq[i], s.nextRel[i])
			s.stamp++
			m.arrival = s.stamp
			s.nextSeq[i]++
			s.nextRel[i] += st.Period
			if s.cfg.SporadicJitter > 0 {
				s.nextRel[i] += s.jitter.Intn(s.cfg.SporadicJitter + 1)
			}
			s.active = append(s.active, m)
			s.stats.PerStream[st.ID].Generated++
			s.addPending(m.links[0], m)
			s.trace(trace.Event{Cycle: s.now, Kind: trace.Release, Stream: st.ID, Seq: m.seq})
		}
	}
}

// newMessage issues a message instance, recycling a retired one when
// available. The per-hop counters share one backing array; both it and
// the message struct survive recycling.
func (s *Simulator) newMessage(st *stream.Stream, seq, genTime int) *message {
	hops := st.Path.Hops()
	n := 2 * hops
	if s.rl > 0 {
		n = 3 * hops
	}
	var m *message
	if k := len(s.free); k > 0 {
		m = s.free[k-1]
		s.free = s.free[:k-1]
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
		links:   s.pathLinks[st.ID],
		ords:    s.pathOrds[st.ID],
		buf:     buf,
		seq:     seq,
		genTime: genTime,
		crossed: buf[0:hops:hops],
		vcHeld:  buf[hops : 2*hops : 2*hops],
		prio:    s.prioIdx[st.Priority],
	}
	if s.rl > 0 {
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
func (s *Simulator) addPending(l *link, m *message) {
	l.pending = append(l.pending, m)
	if !l.queued {
		l.queued = true
		s.waiting = append(s.waiting, l)
	}
}

// assignVCs runs the header VC-allocation policy on every link with
// waiting headers. Only links on the waiting list are visited; a link
// whose queue empties (or was emptied by removePending) drops off the
// list here. Per-link assignment is independent of the visit order, so
// working in list order rather than sorted link order changes nothing
// observable.
func (s *Simulator) assignVCs() {
	kept := s.waiting[:0]
	for _, l := range s.waiting {
		if len(l.pending) == 0 {
			l.queued = false
			continue
		}
		switch s.cfg.Arbiter {
		case Preemptive:
			// Each header may only take the VC of its own priority.
			s.sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := s.pathIndex(m, l)
				if l.vcs[m.prio].owner == nil {
					l.vcs[m.prio].owner = m
					m.vcHeld[idx] = m.prio
					s.trace(trace.Event{Cycle: s.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: m.prio})
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case Li:
			// A header may take the highest free VC numbered at or
			// below its priority.
			s.sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := s.pathIndex(m, l)
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
					s.trace(trace.Event{Cycle: s.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: got})
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case NonPreemptiveFIFO, NonPreemptivePriority:
			s.sortPending(l, s.cfg.Arbiter == NonPreemptivePriority)
			if l.vcs[0].owner == nil {
				m := l.pending[0]
				idx := s.pathIndex(m, l)
				l.vcs[0].owner = m
				m.vcHeld[idx] = 0
				l.pending = l.pending[1:]
				s.trace(trace.Event{Cycle: s.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: 0})
			}
		}
		if len(l.pending) > 0 {
			kept = append(kept, l)
		} else {
			l.queued = false
		}
	}
	s.waiting = kept
}

// sortPending orders a link's waiting headers: by priority (descending)
// then arrival when byPriority is set, else pure arrival order. The
// queues are short and nearly sorted (new headers append at the tail),
// so a stable insertion sort beats sort.SliceStable and, unlike it,
// allocates nothing — this runs for every link with waiters every
// cycle.
func (s *Simulator) sortPending(l *link, byPriority bool) {
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
func (s *Simulator) pathIndex(m *message, l *link) int {
	i := m.headerAt()
	if i >= m.hops() || m.s.Path.Channels[i] != l.ch {
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
func (s *Simulator) collectCandidates() {
	rl, depth := s.rl, s.cfg.BufferDepth
	for _, m := range s.active {
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
			if s.candMask[w]&bit == 0 {
				s.candMask[w] |= bit
				s.candBest[ord] = candidate{m: m, idx: i}
			} else if b := &s.candBest[ord]; vcHeld[i] > b.m.vcHeld[b.idx] {
				s.candBest[ord] = candidate{m: m, idx: i}
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
func (s *Simulator) moveFlits() {
	strict := s.cfg.StrictPhysicalPriority &&
		s.cfg.Arbiter != NonPreemptiveFIFO && s.cfg.Arbiter != NonPreemptivePriority
	for w, word := range s.candMask {
		if word == 0 {
			continue
		}
		s.candMask[w] = 0
		for ; word != 0; word &= word - 1 {
			ord := w<<6 + bits.TrailingZeros64(word)
			c := s.candBest[ord]
			l := s.linkOrder[ord]
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
			s.advance(l, &c)
		}
	}
}

// advance moves one flit of m across path channel idx, handling header
// arrival at the next hop, tail VC release and delivery accounting.
func (s *Simulator) advance(l *link, c *candidate) {
	m, i := c.m, c.idx
	m.crossed[i]++
	m.advanced = true
	l.busy++
	l.flits++
	if i+1 < m.hops() {
		if s.rl > 0 {
			// The flit enters the next router's pipeline; promote()
			// surfaces it (and the header's VC request) later.
			m.inflight[i+1] = append(m.inflight[i+1], s.now)
		} else if m.crossed[i] == 1 {
			// Header arrived at the next router: request a VC there.
			s.stamp++
			m.arrival = s.stamp
			s.addPending(m.links[i+1], m)
		}
	}
	if m.crossed[i] == m.s.Length {
		// Tail passed: release this channel's VC.
		vcIdx := m.vcHeld[i]
		l.vcs[vcIdx].owner = nil
		m.vcHeld[i] = -1
		if i == m.lo {
			m.lo++
		}
		if s.cfg.Tracer != nil {
			s.trace(trace.Event{Cycle: s.now + 1, Kind: trace.VCRelease, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: vcIdx})
		}
		if i == m.hops()-1 {
			s.deliver(m)
		}
	}
}

// promote moves flits out of the router pipelines: a flit that crossed
// channel i-1 during cycle ts becomes available at channel i's input at
// cycle ts + 1 + RouterLatency (the +1 matches the zero-latency model,
// where a crossing is visible the following cycle). The header's
// arrival additionally enqueues its VC request.
func (s *Simulator) promote() {
	for _, m := range s.active {
		for i := 1; i < m.hops(); i++ {
			q := m.inflight[i]
			for len(q) > 0 && s.now-q[0] >= 1+s.rl {
				q = q[1:]
				m.visible[i]++
				if m.visible[i] == 1 {
					s.stamp++
					m.arrival = s.stamp
					s.addPending(m.links[i], m)
				}
			}
			m.inflight[i] = q
		}
	}
}

// dropLate aborts every in-flight message older than its deadline:
// held VCs are released, pending-header entries withdrawn, and the
// message retired as Dropped.
func (s *Simulator) dropLate() {
	kept := s.active[:0]
	for _, m := range s.active {
		if s.now-m.genTime <= m.s.Deadline {
			kept = append(kept, m)
			continue
		}
		h := m.headerAt()
		if h < m.hops() && m.vcHeld[h] < 0 {
			// The header is queued for a VC somewhere: withdraw it.
			m.links[h].removePending(m)
		}
		for i, vcIdx := range m.vcHeld {
			if vcIdx >= 0 {
				l := m.links[i]
				l.vcs[vcIdx].owner = nil
				m.vcHeld[i] = -1
				s.trace(trace.Event{Cycle: s.now, Kind: trace.VCRelease, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: vcIdx})
			}
		}
		st := &s.stats.PerStream[m.s.ID]
		st.Dropped++
		s.retired = append(s.retired, m)
	}
	s.active = kept
}

// accountStalls classifies, for every message still in flight, why it
// made no progress this cycle: waiting for a virtual channel, losing
// the physical-channel arbitration, or blocked on downstream buffers
// (the classic wormhole hold-and-wait). The counts land in the
// per-stream statistics and decompose observed latency into its
// blocking causes.
func (s *Simulator) accountStalls() {
	for _, m := range s.active {
		if m.genTime >= s.cfg.Warmup {
			st := &s.stats.PerStream[m.s.ID]
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
		if s.cfg.DeadlockThreshold > 0 {
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
				if m.stale >= s.cfg.DeadlockThreshold && !m.flagged {
					m.flagged = true
					s.stats.PerStream[m.s.ID].DeadlockSuspects++
					if s.stats.FirstDeadlockCycle < 0 {
						s.stats.FirstDeadlockCycle = s.now
					}
				}
			}
		}
		m.advanced = false
		m.hadCandidate = false
	}
}

// trace emits an event if a tracer is configured.
func (s *Simulator) trace(e trace.Event) {
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Event(e)
	}
}

// deliver records a completed message and retires it.
func (s *Simulator) deliver(m *message) {
	latency := s.now + 1 - m.genTime // the flit crosses during cycle now..now+1
	s.trace(trace.Event{Cycle: s.now + 1, Kind: trace.Deliver, Stream: m.s.ID, Seq: m.seq})
	st := &s.stats.PerStream[m.s.ID]
	st.Delivered++
	if m.genTime >= s.cfg.Warmup {
		st.Observe(latency, m.s.Deadline)
	}
	for i, a := range s.active {
		if a == m {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.retired = append(s.retired, m)
}

// Now returns the current simulation time (useful to instrument partial
// runs in tests).
func (s *Simulator) Now() int { return s.now }
