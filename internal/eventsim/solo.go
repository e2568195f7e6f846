package eventsim

import "repro/internal/sim"

// solo reports whether runSolo folds the component whole: a single
// stream whose release gap can never overlap its own occupancy window
// (period >= wl, and sporadic jitter only widens gaps).
func (c *comp) solo() bool {
	return c.jumpable && len(c.streams) == 1 && c.streams[0].Period >= c.wl[0]
}

// runSolo is the batched fast path for a solo component. Every message
// flies the identical from-release staircase: constant latency,
// constant per-link flit activity, and the same three outcomes a
// flight has — delivery, deadline drop at a constant age, or still in
// flight at the horizon. Each outcome's accounting mirrors
// deliverFlight / dropFlight / finish-with-creditFlight exactly, so
// the whole run folds into one arithmetic loop over release times, and
// the per-link flits go straight into Result.PerChannel: the component
// builds no kernel.
func (c *comp) runSolo() {
	st := c.streams[0]
	lat := c.lat[0]
	cycles, warmup, depth := c.cfg.Cycles, c.cfg.Warmup, c.cfg.BufferDepth
	ps := &c.res.PerStream[st.ID]
	H, C := st.Path.Hops(), st.Length
	flits := make([]int, H)
	// A message drops at age Deadline+1 only if it is still in flight
	// then (addFlight's rule); with constant latency that is a constant
	// property, as are the flit prefixes crossed by the drop cycle.
	drop := c.cfg.DropLate && lat >= st.Deadline+2
	delivered, dropped := 0, 0
	rel, idx := c.nextRel[0], c.relIdx[0]
	for rel < cycles {
		ps.Generated++
		switch {
		case drop && rel+st.Deadline+1 < cycles:
			if rel >= warmup {
				ps.ProgressCycles += st.Deadline + 1
			}
			dropped++
		case drop || rel+lat-1 >= cycles:
			// Still in flight when the horizon (or, for a dropper, a
			// drop cycle at/after the horizon) cuts the run short.
			for i := range flits {
				flits[i] += stairCrossed(cycles-rel, i, C, depth, H)
			}
			if rel >= warmup {
				ps.ProgressCycles += cycles - rel
			}
			ps.Unfinished++
			c.res.Unfinished++
		default:
			if rel >= warmup {
				ps.Observe(lat, st.Deadline)
				ps.ProgressCycles += lat - 1
			}
			delivered++
		}
		rel, idx = c.sched.advance(c.ids[0], rel, idx)
	}
	ps.Delivered += delivered
	ps.Dropped += dropped
	// As Kernel.Finish: only channels that carried a flit appear.
	for i, ch := range st.Path.Channels {
		n := flits[i] + delivered*C + dropped*stairCrossed(st.Deadline+1, i, C, depth, H)
		if n > 0 {
			cs := c.res.PerChannel[ch]
			c.res.PerChannel[ch] = sim.ChannelStats{Flits: cs.Flits + n}
		}
	}
}
