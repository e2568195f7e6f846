package eventsim

// farCycle is the "never" sentinel for scheduled cycles; it exceeds any
// horizon by orders of magnitude.
const farCycle = 1 << 30

// flight is a message in analytic free flow, released in jump mode and
// following the from-release staircase, whose closed forms live in the
// lat/wl tables: its future trajectory is fully determined, so only its
// scheduled endpoints are stored. Flights exist only while no occupancy
// windows overlap, which is exactly the regime in which the cycle
// kernel would grant every request immediately.
type flight struct {
	li      int // local stream index
	seq     int
	t0      int // release cycle
	deliver int // cycle during which the tail crosses the final link
	drop    int // deadline-drop cycle (DropLate), or -1
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

// jumpStep advances virtual time to the next event — release, delivery,
// deadline drop, or end of run — and processes every event scheduled
// there. Event order within one cycle mirrors the kernel's phase order:
// drops happen before releases (dropLate frees state before VC
// assignment), deliveries conceptually complete during the cycle. A
// release whose occupancy windows intersect any in-flight message's
// windows is not consumed; the component re-enters the exact cycle
// kernel at that cycle instead.
func (c *comp) jumpStep() {
	cycles := c.cfg.Cycles
	t := cycles
	for li := range c.streams {
		if c.nextRel[li] < t {
			t = c.nextRel[li]
		}
	}
	for _, f := range c.flights {
		e := f.deliver
		if f.drop >= 0 && f.drop < e {
			e = f.drop
		}
		if e < t {
			t = e
		}
	}
	if c.reentry < t {
		t = c.reentry
	}
	if t >= cycles {
		c.now = cycles
		return
	}
	if t == c.reentry {
		// The scheduled first interaction of two admitted messages:
		// resume exact stepping. Any release, drop, or delivery due
		// this same cycle is the kernel's to perform.
		c.enterCycleMode(t)
		return
	}
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
	for li := range c.streams {
		if c.nextRel[li] != t {
			continue
		}
		cc := c.conflicts(li, t)
		if cc <= t {
			c.enterCycleMode(t)
			return
		}
		if cc < c.reentry {
			c.reentry = cc
		}
		c.addFlight(li, t)
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
	c.now = t + 1
}

// conflicts returns the first cycle at which a release of local stream
// li at cycle t would interact with an in-flight message — the earliest
// cycle where it and a flight both occupy a shared link — or farCycle
// if no such cycle exists. Two free-flowing messages are independent
// until both are present at a common link, so solo free flow is exact
// strictly before the returned cycle.
func (c *comp) conflicts(li, t int) int {
	cc := farCycle
	wlB := c.wl[li]
	for _, f := range c.flights {
		wlA := c.wl[f.li]
		for _, p := range c.pairs[li][f.li] {
			bs, as := t+p.pa, f.t0+p.pb
			if bs <= as+wlA-1 && as <= bs+wlB-1 {
				s := bs
				if as > s {
					s = as
				}
				if s < cc {
					cc = s
				}
			}
		}
	}
	return cc
}

// addFlight releases one message analytically.
func (c *comp) addFlight(li, t int) {
	st := c.streams[li]
	c.res.PerStream[st.ID].Generated++
	f := flight{li: li, seq: c.nextSeq[li], t0: t, deliver: t + c.lat[li] - 1, drop: -1}
	// dropLate fires at t0+D+1; the message is still in flight then
	// only if its (free-flow) latency is at least D+2. A latency of
	// exactly D+1 is a deadline miss, not a drop.
	if c.cfg.DropLate && c.lat[li] >= st.Deadline+2 {
		f.drop = t + st.Deadline + 1
	}
	c.nextSeq[li]++
	c.nextRel[li], c.relIdx[li] = c.sched.advance(c.gidx[li], c.nextRel[li], c.relIdx[li])
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
	for _, l := range c.pathLinks[f.li] {
		l.flits += st.Length
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
	for i, l := range c.pathLinks[f.li] {
		l.flits += stairCrossed(a, i, C, c.depth, H)
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
		return flightOrder{cycle: f.t0 + i - 1, phase: 2, tie: int(c.pathOrds[f.li][i-1])}
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

// enterCycleMode materialises every flight into exact kernel state at
// the start of cycle t and switches the component to cycle stepping.
// The release that triggered the fallback has not been consumed; the
// kernel's own release phase will issue it this same cycle, after the
// (earlier-stream) flights released at t, which is the oracle's order.
func (c *comp) enterCycleMode(t int) {
	c.now = t
	c.reentry = farCycle
	// Stamp issuing order, computed with scratch buffers and an
	// insertion sort: re-entries are frequent and flight counts tiny,
	// so per-entry allocation and sort.Slice overhead would dominate
	// the round trip.
	n := len(c.flights)
	if cap(c.ordKeys) < n {
		c.ordKeys = make([]flightOrder, n, 2*n)
		c.ordIdx = make([]int, n, 2*n)
		c.ordStamps = make([]int64, n, 2*n)
	}
	keys, idx, stamps := c.ordKeys[:n], c.ordIdx[:n], c.ordStamps[:n]
	for i, f := range c.flights {
		idx[i] = i
		keys[i] = c.orderKey(f, t)
	}
	for i := 1; i < n; i++ {
		v := idx[i]
		j := i
		for j > 0 && orderLess(keys[v], keys[idx[j-1]]) {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = v
	}
	for _, fi := range idx {
		c.stamp++
		stamps[fi] = c.stamp
	}
	// Materialise in flight (= release) order so the kernel's active
	// list comes out in the order the oracle maintains it.
	for fi, f := range c.flights {
		c.materialize(f, stamps[fi], t)
	}
	c.flights = c.flights[:0]
}

// materialize reconstructs the exact kernel state of one free-flowing
// message at the start of cycle t: flit counts, the held-VC range
// (under every arbiter a free-flowing header is granted the VC its
// scheme assigns: its own priority level for Preemptive/Li, VC 0 for
// the single-channel schemes), the pending header registration, and
// the already-earned statistics.
func (c *comp) materialize(f flight, stamp int64, t int) {
	st := c.streams[f.li]
	m := c.newMessage(f.li, f.seq, f.t0)
	m.arrival = stamp
	H, C := st.Path.Hops(), st.Length
	a := t - f.t0
	for i := 0; i < H; i++ {
		m.crossed[i] = stairCrossed(a, i, C, c.depth, H)
	}
	vc := 0
	if c.schemeVC {
		vc = m.prio
	}
	lo := 0
	for lo < H && m.crossed[lo] >= C {
		lo++
	}
	m.lo = lo
	for i := lo; i < H; i++ {
		if m.crossed[i] > 0 && m.crossed[i] < C {
			m.vcHeld[i] = vc
			c.pathLinks[f.li][i].vcs[vc].owner = m
		}
	}
	h := lo
	for h < H && m.crossed[h] > 0 {
		h++
	}
	if h < H {
		c.addPending(m.links[h], m)
	}
	c.active = append(c.active, m)
	c.creditFlight(f, t)
}
