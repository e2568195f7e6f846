package eventsim

import "repro/internal/sim"

// runSolo is the batched fast path for a single-stream component whose
// release gap can never overlap its own occupancy window (period >=
// wl, and sporadic jitter only widens gaps). Every message then flies
// the identical from-release staircase: constant latency, constant
// per-link flit activity, and the same three outcomes the generic jump
// path produces — delivery, deadline drop at a constant age, or still
// in flight at the horizon. Each outcome's accounting mirrors
// deliverFlight / dropFlight / finish-with-creditFlight exactly, so
// the whole run folds into one arithmetic loop over release times.
// Reports whether it handled the run.
func (c *comp) runSolo() bool {
	if !c.jumpable || len(c.streams) != 1 {
		return false
	}
	st := c.streams[0]
	lat, wl := c.lat[0], c.wl[0]
	if st.Period < wl {
		return false
	}
	cycles, warmup := c.cfg.Cycles, c.cfg.Warmup
	ps := &c.res.PerStream[st.ID]
	links := c.pathLinks[0]
	H, C := st.Path.Hops(), st.Length
	// A message drops at age Deadline+1 only if it is still in flight
	// then (addFlight's rule); with constant latency that is a constant
	// property, as are the flit prefixes crossed by the drop cycle.
	drop := c.cfg.DropLate && lat >= st.Deadline+2
	var dropFlits []int
	if drop {
		dropFlits = make([]int, H)
		for i := 0; i < H; i++ {
			dropFlits[i] = stairCrossed(st.Deadline+1, i, C, c.depth, H)
		}
	}
	unfinished := 0
	rel, idx := c.nextRel[0], c.relIdx[0]
	for rel < cycles {
		ps.Generated++
		switch {
		case drop && rel+st.Deadline+1 < cycles:
			for i, l := range links {
				l.flits += dropFlits[i]
			}
			if rel >= warmup {
				ps.ProgressCycles += st.Deadline + 1
			}
			ps.Dropped++
		case drop || rel+lat-1 >= cycles:
			// Still in flight when the horizon (or, for a dropper, a
			// drop cycle at/after the horizon) cuts the run short.
			for i, l := range links {
				l.flits += stairCrossed(cycles-rel, i, C, c.depth, H)
			}
			if rel >= warmup {
				ps.ProgressCycles += cycles - rel
			}
			ps.Unfinished++
			unfinished++
		default:
			ps.Delivered++
			if rel >= warmup {
				ps.Observe(lat, st.Deadline)
				ps.ProgressCycles += lat - 1
			}
			for _, l := range links {
				l.flits += C
			}
		}
		rel, idx = c.sched.advance(c.gidx[0], rel, idx)
	}
	c.nextRel[0], c.relIdx[0] = rel, idx
	c.now = cycles
	c.unfinished = unfinished
	for _, l := range c.links {
		if l.flits > 0 {
			c.res.PerChannel[l.ch] = sim.ChannelStats{BusyCycles: l.flits, Flits: l.flits}
		}
	}
	return true
}
