package eventsim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// ipair records one shared link between two stream paths: path index
// pa on the first stream, pb on the second.
type ipair struct {
	pa, pb int
}

// cmsg is the kernel's in-flight message instance — a field-for-field
// port of sim's message (minus tracing), pooled and recycled the same
// way.
type cmsg struct {
	st      *stream.Stream
	links   []*clink
	ords    []int32
	buf     []int
	seq     int
	genTime int
	crossed []int
	vcHeld  []int
	lo      int
	// Router-pipeline state, used only when RouterLatency > 0.
	visible  []int
	inflight [][]int
	arrival  int64
	prio     int

	hadCandidate bool
	advanced     bool
	stale        int
	flagged      bool
}

func (m *cmsg) hops() int { return len(m.crossed) }

func (m *cmsg) headerAt() int {
	for i := m.lo; i < len(m.crossed); i++ {
		if m.crossed[i] == 0 {
			return i
		}
	}
	return m.hops()
}

type cvc struct {
	owner *cmsg
}

// clink is one directed physical channel of the component. The cycle
// engine tracks busy cycles and flit counts separately but increments
// them together on every crossing, so one counter serves both.
type clink struct {
	ch      topology.Channel
	vcs     []cvc
	pending []*cmsg
	flits   int
	queued  bool
}

func (l *clink) removePending(m *cmsg) {
	for i, p := range l.pending {
		if p == m {
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			return
		}
	}
}

type ccand struct {
	m   *cmsg
	idx int
}

// comp is one conflict component: streams whose paths are transitively
// connected through shared channels, simulated to completion with no
// reference to any other component.
type comp struct {
	cfg   *sim.Config
	res   *sim.Result
	sched *schedule

	// Static tables in the component's local index spaces.
	streams   []*stream.Stream // ascending stream ID
	gidx      []int            // global stream index per local stream
	links     []*clink         // in the cycle engine's channel scan order
	pathLinks [][]*clink       // per local stream, per hop
	pathOrds  [][]int32        // per local stream: local link ordinals
	prio      []int            // priority level index per local stream
	rl        int
	depth     int
	strict    bool

	// Analytic free-flow constants (meaningful only when jumpable):
	// lat[li] is the unloaded latency, wl[li] the per-link occupancy
	// window length, and pairs[a][b] the shared-link index pairs of
	// local streams a and b (a == b gives the identity pairs, which
	// make back-to-back instances of one stream check against each
	// other).
	jumpable bool
	schemeVC bool // arbiter grants a free-flowing header its own-priority VC
	lat      []int
	wl       []int
	pairs    [][][]ipair

	// Release cursors per local stream.
	nextRel []int
	relIdx  []int
	nextSeq []int

	// Jump-mode state: analytic flights, in release order.
	flights []flight

	// Materialisation scratch (stamp-order computation).
	ordKeys   []flightOrder
	ordIdx    []int
	ordStamps []int64

	// Cycle-kernel state (port of sim.Simulator's fields).
	active   []*cmsg
	retired  []*cmsg
	free     []*cmsg
	waiting  []*clink
	candMask []uint64
	candBest []ccand
	stamp    int64
	now      int
	reentry  int // scheduled first-interaction cycle for kernel re-entry

	unfinished    int
	firstDeadlock int
}

func newComp(s *Simulator, ids []int, scanOrd map[topology.Channel]int, prioIdx map[int]int, vcsPerLink int) *comp {
	c := &comp{
		cfg:           &s.cfg,
		res:           s.res,
		sched:         s.sched,
		rl:            s.set.RouterLatency,
		depth:         s.cfg.BufferDepth,
		firstDeadlock: -1,
		reentry:       farCycle,
	}
	c.strict = s.cfg.StrictPhysicalPriority &&
		s.cfg.Arbiter != sim.NonPreemptiveFIFO && s.cfg.Arbiter != sim.NonPreemptivePriority
	c.schemeVC = s.cfg.Arbiter == sim.Preemptive || s.cfg.Arbiter == sim.Li
	c.jumpable = c.rl == 0
	n := len(ids)
	c.streams = make([]*stream.Stream, n)
	c.gidx = make([]int, n)
	for li, gi := range ids {
		c.streams[li] = s.set.Get(stream.ID(gi))
		c.gidx[li] = gi
	}

	// Component links, keeping the global scan order so the kernel's
	// flit-movement sweep matches the oracle's visiting order.
	seen := make(map[topology.Channel]bool)
	var chans []topology.Channel
	for _, st := range c.streams {
		for _, ch := range st.Path.Channels {
			if !seen[ch] {
				seen[ch] = true
				chans = append(chans, ch)
			}
		}
	}
	sort.Slice(chans, func(i, j int) bool { return scanOrd[chans[i]] < scanOrd[chans[j]] })
	arr := make([]clink, len(chans))
	byChan := make(map[topology.Channel]int32, len(chans))
	for i, ch := range chans {
		arr[i] = clink{ch: ch, vcs: make([]cvc, vcsPerLink)}
		c.links = append(c.links, &arr[i])
		byChan[ch] = int32(i)
	}
	c.candMask = make([]uint64, (len(chans)+63)/64)
	c.candBest = make([]ccand, len(chans))

	c.pathLinks = make([][]*clink, n)
	c.pathOrds = make([][]int32, n)
	c.prio = make([]int, n)
	c.lat = make([]int, n)
	c.wl = make([]int, n)
	for li, st := range c.streams {
		hop := make([]*clink, len(st.Path.Channels))
		ords := make([]int32, len(st.Path.Channels))
		for i, ch := range st.Path.Channels {
			ords[i] = byChan[ch]
			hop[i] = c.links[ords[i]]
		}
		c.pathLinks[li] = hop
		c.pathOrds[li] = ords
		c.prio[li] = prioIdx[st.Priority]
		H := st.Path.Hops()
		c.lat[li] = freeLat(H, st.Length, c.depth)
		c.wl[li] = c.lat[li] - H + 1
	}
	c.pairs = make([][][]ipair, n)
	for a := range c.streams {
		c.pairs[a] = make([][]ipair, n)
		for b := range c.streams {
			var ps []ipair
			for pa, cha := range c.streams[a].Path.Channels {
				for pb, chb := range c.streams[b].Path.Channels {
					if cha == chb {
						ps = append(ps, ipair{pa, pb})
					}
				}
			}
			c.pairs[a][b] = ps
		}
	}

	c.nextRel = make([]int, n)
	c.relIdx = make([]int, n)
	c.nextSeq = make([]int, n)
	for li := range c.streams {
		c.nextRel[li], c.relIdx[li] = c.sched.start(c.gidx[li])
	}
	return c
}

// run simulates the component to the configured horizon, alternating
// between analytic jump mode and the exact cycle kernel, then settles
// the end-of-run accounting. The component is in jump mode exactly
// while its kernel holds no message: enterCycleMode hands every flight
// to the kernel, and the kernel hands back only once it drains. A
// drained kernel holds no VC and no pending header, which is exactly
// the state jump mode assumes.
func (c *comp) run() {
	if c.runSolo() {
		return
	}
	cycles := c.cfg.Cycles
	for c.now < cycles {
		if len(c.active) == 0 {
			if c.jumpable {
				c.jumpStep()
				continue
			}
			// Without jump mode (RouterLatency > 0) the kernel state
			// cannot change until the next release: skip the gap.
			t := cycles
			for li := range c.streams {
				if c.nextRel[li] < t {
					t = c.nextRel[li]
				}
			}
			if t >= cycles {
				c.now = cycles
				break
			}
			c.now = t
		}
		c.kernelCycle()
	}
	c.finish()
}

// kernelCycle executes one exact simulation cycle — the same phase
// sequence as sim.Simulator.Run.
func (c *comp) kernelCycle() {
	c.release()
	if c.cfg.DropLate {
		c.dropLate()
	}
	if c.rl > 0 {
		c.promote()
	}
	c.assignVCs()
	c.collectCandidates()
	c.moveFlits()
	c.accountStalls()
	c.free = append(c.free, c.retired...)
	c.retired = c.retired[:0]
	c.now++
}

func (c *comp) release() {
	for li, st := range c.streams {
		for c.nextRel[li] <= c.now {
			m := c.newMessage(li, c.nextSeq[li], c.nextRel[li])
			c.stamp++
			m.arrival = c.stamp
			c.nextSeq[li]++
			c.nextRel[li], c.relIdx[li] = c.sched.advance(c.gidx[li], c.nextRel[li], c.relIdx[li])
			c.active = append(c.active, m)
			c.res.PerStream[st.ID].Generated++
			c.addPending(m.links[0], m)
		}
	}
}

func (c *comp) newMessage(li, seq, genTime int) *cmsg {
	st := c.streams[li]
	hops := st.Path.Hops()
	n := 2 * hops
	if c.rl > 0 {
		n = 3 * hops
	}
	var m *cmsg
	if k := len(c.free); k > 0 {
		m = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		m = &cmsg{}
	}
	buf := m.buf
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	inflight := m.inflight
	*m = cmsg{
		st:      st,
		links:   c.pathLinks[li],
		ords:    c.pathOrds[li],
		buf:     buf,
		seq:     seq,
		genTime: genTime,
		crossed: buf[0:hops:hops],
		vcHeld:  buf[hops : 2*hops : 2*hops],
		prio:    c.prio[li],
	}
	if c.rl > 0 {
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

func (c *comp) addPending(l *clink, m *cmsg) {
	l.pending = append(l.pending, m)
	if !l.queued {
		l.queued = true
		c.waiting = append(c.waiting, l)
	}
}

func (c *comp) assignVCs() {
	kept := c.waiting[:0]
	for _, l := range c.waiting {
		if len(l.pending) == 0 {
			l.queued = false
			continue
		}
		switch c.cfg.Arbiter {
		case sim.Preemptive:
			sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := pathIndex(m, l)
				if l.vcs[m.prio].owner == nil {
					l.vcs[m.prio].owner = m
					m.vcHeld[idx] = m.prio
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case sim.Li:
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
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case sim.NonPreemptiveFIFO, sim.NonPreemptivePriority:
			sortPending(l, c.cfg.Arbiter == sim.NonPreemptivePriority)
			if l.vcs[0].owner == nil {
				m := l.pending[0]
				idx := pathIndex(m, l)
				l.vcs[0].owner = m
				m.vcHeld[idx] = 0
				l.pending = l.pending[1:]
			}
		}
		if len(l.pending) > 0 {
			kept = append(kept, l)
		} else {
			l.queued = false
		}
	}
	c.waiting = kept
}

func sortPending(l *clink, byPriority bool) {
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

func pendingBefore(a, b *cmsg, byPriority bool) bool {
	if byPriority && a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.arrival < b.arrival
}

func pathIndex(m *cmsg, l *clink) int {
	i := m.headerAt()
	if i >= m.hops() || m.links[i] != l {
		panic(fmt.Sprintf("eventsim: message %d/%d header not at link %s", m.st.ID, m.seq, l.ch))
	}
	return i
}

func (c *comp) collectCandidates() {
	rl, depth := c.rl, c.depth
	for _, m := range c.active {
		C := m.st.Length
		crossed, vcHeld := m.crossed, m.vcHeld
		for i := m.lo; i < len(crossed); i++ {
			if vcHeld[i] < 0 {
				break
			}
			if crossed[i] >= C {
				continue
			}
			if i > 0 {
				avail := crossed[i-1]
				if rl > 0 {
					avail = m.visible[i]
				}
				if avail <= crossed[i] {
					continue
				}
			}
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
			if c.candMask[w]&bit == 0 {
				c.candMask[w] |= bit
				c.candBest[ord] = ccand{m: m, idx: i}
			} else if b := &c.candBest[ord]; vcHeld[i] > b.m.vcHeld[b.idx] {
				c.candBest[ord] = ccand{m: m, idx: i}
			}
			m.hadCandidate = true
		}
	}
}

func (c *comp) moveFlits() {
	for w, word := range c.candMask {
		if word == 0 {
			continue
		}
		c.candMask[w] = 0
		for ; word != 0; word &= word - 1 {
			ord := w<<6 + bits.TrailingZeros64(word)
			cb := c.candBest[ord]
			l := c.links[ord]
			if c.strict {
				top := -1
				for v := len(l.vcs) - 1; v >= 0; v-- {
					if l.vcs[v].owner != nil {
						top = v
						break
					}
				}
				if cb.m.vcHeld[cb.idx] != top {
					continue
				}
			}
			c.advance(l, &cb)
		}
	}
}

func (c *comp) advance(l *clink, cb *ccand) {
	m, i := cb.m, cb.idx
	m.crossed[i]++
	m.advanced = true
	l.flits++
	if i+1 < m.hops() {
		if c.rl > 0 {
			m.inflight[i+1] = append(m.inflight[i+1], c.now)
		} else if m.crossed[i] == 1 {
			c.stamp++
			m.arrival = c.stamp
			c.addPending(m.links[i+1], m)
		}
	}
	if m.crossed[i] == m.st.Length {
		vcIdx := m.vcHeld[i]
		l.vcs[vcIdx].owner = nil
		m.vcHeld[i] = -1
		if i == m.lo {
			m.lo++
		}
		if i == m.hops()-1 {
			c.deliver(m)
		}
	}
}

func (c *comp) promote() {
	for _, m := range c.active {
		for i := 1; i < m.hops(); i++ {
			q := m.inflight[i]
			for len(q) > 0 && c.now-q[0] >= 1+c.rl {
				q = q[1:]
				m.visible[i]++
				if m.visible[i] == 1 {
					c.stamp++
					m.arrival = c.stamp
					c.addPending(m.links[i], m)
				}
			}
			m.inflight[i] = q
		}
	}
}

func (c *comp) dropLate() {
	kept := c.active[:0]
	for _, m := range c.active {
		if c.now-m.genTime <= m.st.Deadline {
			kept = append(kept, m)
			continue
		}
		h := m.headerAt()
		if h < m.hops() && m.vcHeld[h] < 0 {
			m.links[h].removePending(m)
		}
		for i, vcIdx := range m.vcHeld {
			if vcIdx >= 0 {
				m.links[i].vcs[vcIdx].owner = nil
				m.vcHeld[i] = -1
			}
		}
		c.res.PerStream[m.st.ID].Dropped++
		c.retired = append(c.retired, m)
	}
	c.active = kept
}

func (c *comp) accountStalls() {
	for _, m := range c.active {
		if m.genTime >= c.cfg.Warmup {
			st := &c.res.PerStream[m.st.ID]
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
		if c.cfg.DeadlockThreshold > 0 {
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
				if m.stale >= c.cfg.DeadlockThreshold && !m.flagged {
					m.flagged = true
					c.res.PerStream[m.st.ID].DeadlockSuspects++
					if c.firstDeadlock < 0 {
						c.firstDeadlock = c.now
					}
				}
			}
		}
		m.advanced = false
		m.hadCandidate = false
	}
}

func (c *comp) deliver(m *cmsg) {
	latency := c.now + 1 - m.genTime
	st := &c.res.PerStream[m.st.ID]
	st.Delivered++
	if m.genTime >= c.cfg.Warmup {
		st.Observe(latency, m.st.Deadline)
	}
	for i, a := range c.active {
		if a == m {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	c.retired = append(c.retired, m)
}

// finish settles end-of-run accounting: unfinished messages in either
// representation and the per-channel activity flush.
func (c *comp) finish() {
	c.unfinished = len(c.active) + len(c.flights)
	for _, m := range c.active {
		c.res.PerStream[m.st.ID].Unfinished++
	}
	for _, f := range c.flights {
		c.res.PerStream[c.streams[f.li].ID].Unfinished++
		c.creditFlight(f, c.cfg.Cycles)
	}
	for _, l := range c.links {
		if l.flits > 0 {
			c.res.PerChannel[l.ch] = sim.ChannelStats{BusyCycles: l.flits, Flits: l.flits}
		}
	}
}
