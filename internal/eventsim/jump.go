package eventsim

// farCycle is the "never" sentinel for scheduled cycles; it exceeds any
// horizon by orders of magnitude.
const farCycle = 1 << 30

// flight is a message in analytic free flow, following the
// from-release staircase whose closed forms live in the lat/wl tables:
// its future trajectory is fully determined, so only its scheduled
// endpoints are stored. A flight shares no link with a kernel message
// (the component's invariant), and flies only until meet, the first
// cycle its occupancy window overlaps another flight's; up to then the
// cycle kernel would grant its every request immediately.
type flight struct {
	li      int // local stream index
	seq     int
	t0      int // release cycle
	deliver int // cycle during which the tail crosses the final link
	drop    int // deadline-drop cycle (DropLate), or farCycle
	meet    int // first cycle it shares a link with another flight, or farCycle
}

// stairCrossed is the from-release free-flow trajectory: the number of
// flits that have crossed path channel i at the start of cycle t0+a.
// With buffer depth >= 2 the pipeline streams one flit per cycle per
// link; with depth 1 each link sustains every other cycle (except a
// single-hop path, where no downstream buffer constrains the source).
func stairCrossed(a, i, C, depth, H int) int {
	var v int
	if depth >= 2 || H == 1 {
		v = a - i
	} else {
		v = (a - i + 1) / 2 // ceil((a-i)/2) for a >= i
	}
	if v < 0 {
		return 0
	}
	if v > C {
		return C
	}
	return v
}

// freeLat is the unloaded latency of an H-hop, C-flit message: its tail
// crosses the final link during cycle t0+freeLat-1 of the staircase.
func freeLat(H, C, depth int) int {
	if depth >= 2 || H == 1 {
		return H + C - 1
	}
	return H + 2*C - 2
}

// events performs every flight and release event due at the start of
// cycle t, in the kernel's phase order, and returns the cycle the next
// one is due (at most the horizon). Deadline drops come first (dropLate
// frees state before VC assignment); then every flight whose window
// meets another's now enters the kernel; then the releases, in stream
// order like sim.Simulator's; deliveries last (the tail crosses during
// cycle t). A release enters the kernel when its path reaches a link a
// kernel message still needs, or when its window meets a flight's now.
// Otherwise it flies, and it and every flight it will meet note the
// first cycle they do.
func (c *comp) events(t int) int {
	if c.cfg.DropLate {
		kept := c.flights[:0]
		for _, f := range c.flights {
			if f.drop == t {
				c.dropFlight(f)
			} else {
				kept = append(kept, f)
			}
		}
		c.flights = kept
	}
	for i := 0; i < len(c.flights); i++ {
		if c.flights[i].meet == t {
			c.enter(t, i, -1)
			i = -1 // enter removed flights: rescan
		}
	}
	for li := range c.streams {
		if c.nextRel[li] != t {
			continue
		}
		m := t
		if c.jumpable && !c.reserved(li) {
			m = c.meet(li, t)
		}
		if m > t {
			c.addFlight(li, t, m)
		} else {
			c.enter(t, -1, li)
		}
	}
	kept := c.flights[:0]
	for _, f := range c.flights {
		if f.deliver == t {
			c.deliverFlight(f)
		} else {
			kept = append(kept, f)
		}
	}
	c.flights = kept

	next := c.cfg.Cycles
	for _, r := range c.nextRel {
		next = min(next, r)
	}
	for _, f := range c.flights {
		next = min(next, f.deliver, f.drop, f.meet)
	}
	return next
}

// reserved reports whether the path of local stream li reaches a link
// that a kernel message still needs.
func (c *comp) reserved(li int) bool {
	for hop := range c.streams[li].Path.Channels {
		if c.k.Reserved(li, hop) {
			return true
		}
	}
	return false
}

// meet returns the first cycle at which a release of local stream li at
// cycle t would share a link with a flight — the earliest cycle where
// both occupy one — or farCycle if it never would, and lowers each
// such flight's own meet cycle to the one it shares with the release.
// Two free-flowing messages are independent until both are present at
// a common link, so solo free flow is exact strictly before that cycle.
func (c *comp) meet(li, t int) int {
	m := farCycle
	wlB := c.wl[li]
	for g := range c.flights {
		f := &c.flights[g]
		wlA := c.wl[f.li]
		for _, p := range c.pairs[li][f.li] {
			bs, as := t+p.pa, f.t0+p.pb
			if bs <= as+wlA-1 && as <= bs+wlB-1 {
				s := max(bs, as)
				f.meet = min(f.meet, s)
				m = min(m, s)
			}
		}
	}
	return m
}

// addFlight releases one message analytically; it meets another
// flight at cycle meet.
func (c *comp) addFlight(li, t, meet int) {
	st := c.streams[li]
	c.res.PerStream[st.ID].Generated++
	f := flight{li: li, seq: c.nextSeq[li], t0: t, deliver: t + c.lat[li] - 1, drop: farCycle, meet: meet}
	// dropLate fires at t0+D+1; the message is still in flight then
	// only if its (free-flow) latency is at least D+2. A latency of
	// exactly D+1 is a deadline miss, not a drop.
	if c.cfg.DropLate && c.lat[li] >= st.Deadline+2 {
		f.drop = t + st.Deadline + 1
	}
	c.consumeRelease(li)
	c.flights = append(c.flights, f)
}

// deliverFlight accounts a free-flow delivery: the kernel would have
// recorded one progress cycle for every cycle of the flight except the
// delivery cycle itself (deliver removes the message before the stall
// accounting runs), and every flit crossing every link.
func (c *comp) deliverFlight(f flight) {
	st := c.streams[f.li]
	ps := &c.res.PerStream[st.ID]
	ps.Delivered++
	lat := f.deliver - f.t0 + 1
	if f.t0 >= c.cfg.Warmup {
		ps.Observe(lat, st.Deadline)
		ps.ProgressCycles += lat - 1
	}
	for i := 0; i < st.Path.Hops(); i++ {
		c.k.AddFlits(f.li, i, st.Length)
	}
}

// dropFlight accounts a deadline drop at cycle f.drop: crossings and
// progress up to the start of that cycle (dropLate removes the message
// before any flit moves or stall is accounted).
func (c *comp) dropFlight(f flight) {
	c.creditFlight(f, f.drop)
	c.res.PerStream[c.streams[f.li].ID].Dropped++
}

// creditFlight books f's activity up to the start of cycle t: the
// per-link flit crossings and — a free-flowing message advances some
// flit every single cycle — one progress cycle per cycle in flight.
func (c *comp) creditFlight(f flight, t int) {
	st := c.streams[f.li]
	H, C := st.Path.Hops(), st.Length
	a := t - f.t0
	for i := 0; i < H; i++ {
		c.k.AddFlits(f.li, i, stairCrossed(a, i, C, c.cfg.BufferDepth, H))
	}
	if f.t0 >= c.cfg.Warmup {
		c.res.PerStream[st.ID].ProgressCycles += a
	}
}

// flightOrder is the sort key reproducing the oracle's stamp-issuing
// order at materialisation: (cycle, phase, tiebreak) of the flight's
// latest stamped event — its release (phase 0, ties by the release
// loop's stream order) or its latest header arrival (phase 2 =
// moveFlits, ties by the scan ordinal of the link just crossed, unique
// because two headers cannot cross the same link in the same cycle).
type flightOrder struct {
	cycle int
	phase int
	tie   int
}

func (c *comp) orderKey(f flight, t int) flightOrder {
	i := c.streams[f.li].Path.Hops() - 1
	if a := t - f.t0; a < i {
		i = a
	}
	if i >= 1 {
		return flightOrder{cycle: f.t0 + i - 1, phase: 2, tie: c.k.Ord(f.li, i-1)}
	}
	return flightOrder{cycle: f.t0, phase: 0, tie: f.li}
}

func orderLess(a, b flightOrder) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.tie < b.tie
}

// unfinished returns the first hop of flight f whose tail has yet to
// cross at the start of cycle t: hop i's tail crosses during cycle
// t0+i+wl-1, so the unfinished links are a path suffix.
func (c *comp) unfinished(f flight, t int) int {
	return max(0, t-f.t0-c.wl[f.li]+1)
}

// enter moves a message into the kernel at the start of cycle t, and
// with it every flight whose unfinished links it reaches, transitively,
// so no remaining flight shares a link with the kernel: flight fi, or
// with fi < 0 the due release of local stream li. The pulled flights
// are stamped in the order the oracle last stamped them, ahead of the
// release: each was released or last stamped before it. Their stamps
// are only ever compared with each other's and with the release's, as
// no other kernel message needs any of their links.
func (c *comp) enter(t, fi, li int) {
	n := len(c.flights)
	if cap(c.pulled) < n {
		c.pulled = make([]bool, 2*n)
		c.ordKeys = make([]flightOrder, 2*n)
		c.ordIdx = make([]int, 0, 2*n)
		c.ordStamps = make([]int64, 2*n)
	}
	pulled := c.pulled[:n]
	clear(pulled)
	in := c.ordIdx[:0]
	if fi >= 0 {
		pulled[fi] = true
		in = append(in, fi)
	} else {
		in = c.reach(li, 0, t, in)
	}
	for j := 0; j < len(in); j++ {
		f := c.flights[in[j]]
		in = c.reach(f.li, c.unfinished(f, t), t, in)
	}
	// Stamp issuing order by insertion sort: pulls are frequent and
	// small, so sort.Slice overhead would dominate.
	keys, stamps := c.ordKeys[:n], c.ordStamps[:n]
	for _, g := range in {
		keys[g] = c.orderKey(c.flights[g], t)
	}
	for i := 1; i < len(in); i++ {
		v := in[i]
		j := i
		for j > 0 && orderLess(keys[v], keys[in[j-1]]) {
			in[j] = in[j-1]
			j--
		}
		in[j] = v
	}
	for _, g := range in {
		stamps[g] = c.k.NextStamp()
	}
	kept := c.flights[:0]
	for g, f := range c.flights {
		if pulled[g] {
			c.materialize(f, stamps[g], t)
		} else {
			kept = append(kept, f)
		}
	}
	c.flights = kept
	if fi < 0 {
		c.k.Release(li, c.nextSeq[li], t)
		c.consumeRelease(li)
	}
}

// reach pulls every flight not yet pulled whose unfinished links the
// path of local stream a reaches from hop lo on, appending it to in.
func (c *comp) reach(a, lo, t int, in []int) []int {
	for g, f := range c.flights {
		if c.pulled[g] {
			continue
		}
		flo := c.unfinished(f, t)
		for _, p := range c.pairs[a][f.li] {
			if p.pa >= lo && p.pb >= flo {
				c.pulled[g] = true
				in = append(in, g)
				break
			}
		}
	}
	return in
}

// materialize hands the kernel one free-flowing message at the start
// of cycle t, at its staircase position, and books the statistics it
// earned in flight.
func (c *comp) materialize(f flight, stamp int64, t int) {
	st := c.streams[f.li]
	H, C := st.Path.Hops(), st.Length
	c.crossed = c.crossed[:0]
	for i := 0; i < H; i++ {
		c.crossed = append(c.crossed, stairCrossed(t-f.t0, i, C, c.cfg.BufferDepth, H))
	}
	c.k.Inject(f.li, f.seq, f.t0, stamp, c.crossed)
	c.creditFlight(f, t)
}
