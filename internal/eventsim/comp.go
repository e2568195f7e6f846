package eventsim

import (
	"repro/internal/sim"
	"repro/internal/stream"
)

// ipair records one shared link between two stream paths: path index
// pa on the first stream, pb on the second.
type ipair struct {
	pa, pb int
}

// comp is one conflict component: streams whose paths are transitively
// connected through shared channels, simulated to completion with no
// reference to any other component. Its messages are analytic flights
// while they cannot contend and messages of its sim.Kernel, stepped
// cycle by cycle, once they might. Both kinds coexist under one
// invariant: no link a flight has yet to finish crossing is held, or
// still needed, by a kernel message.
type comp struct {
	cfg   *sim.Config
	res   *sim.Result
	sched *schedule
	k     *sim.Kernel // nil when runSolo folds the component whole

	ids     []int            // global stream index per local stream, ascending
	streams []*stream.Stream // per local stream

	// Analytic free-flow constants (meaningful only when jumpable):
	// lat[li] is the unloaded latency, wl[li] the per-link occupancy
	// window length, and pairs[a][b] the shared-link index pairs of
	// local streams a and b (a == b gives the identity pairs, which
	// make back-to-back instances of one stream check against each
	// other).
	jumpable bool
	lat      []int
	wl       []int
	pairs    [][][]ipair

	// Release cursors per local stream.
	nextRel []int
	relIdx  []int
	nextSeq []int

	// Analytic flights, in release order.
	flights []flight

	// Materialisation scratch: the flights one entry pulls in, their
	// stamp order, and staircase positions.
	pulled    []bool
	ordKeys   []flightOrder
	ordIdx    []int
	ordStamps []int64
	crossed   []int

	steps int // cycles stepped in the kernel
	held  int // messages held, summed over those cycles
}

func newComp(s *Simulator, ids []int) *comp {
	n := len(ids)
	c := &comp{
		cfg:      &s.cfg,
		res:      s.res,
		sched:    s.sched,
		ids:      ids,
		streams:  make([]*stream.Stream, n),
		jumpable: s.set.RouterLatency == 0,
		lat:      make([]int, n),
		wl:       make([]int, n),
		nextRel:  make([]int, n),
		relIdx:   make([]int, n),
	}
	for li, gi := range ids {
		st := s.set.Get(stream.ID(gi))
		c.streams[li] = st
		H := st.Path.Hops()
		c.lat[li] = freeLat(H, st.Length, s.cfg.BufferDepth)
		c.wl[li] = c.lat[li] - H + 1
		c.nextRel[li], c.relIdx[li] = c.sched.start(gi)
	}
	if c.solo() {
		return c
	}
	c.k = sim.NewKernel(s.set, ids, s.cfg, s.res)
	c.nextSeq = make([]int, n)
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
	return c
}

// run simulates the component to the configured horizon, then settles
// the end-of-run accounting. Each cycle first performs the flight and
// release events due then (events, which keeps the invariant), then
// steps the kernel if it holds a message; with none held, the clock
// jumps to the next event. Events are rare next to kernel cycles, so a
// cycle with none due costs one comparison beside the Step.
func (c *comp) run() {
	if c.k == nil {
		c.runSolo()
		return
	}
	cycles, next := c.cfg.Cycles, 0
	for t := c.k.Now(); t < cycles; t = c.k.Now() {
		if t >= next {
			next = c.events(t)
		}
		held := c.k.Held()
		if held == 0 {
			c.k.SetNow(next)
			continue
		}
		c.held += held
		c.k.Step()
		c.steps++
	}
	c.finish()
}

// consumeRelease moves local stream li's cursor past its current
// release.
func (c *comp) consumeRelease(li int) {
	c.nextSeq[li]++
	c.nextRel[li], c.relIdx[li] = c.sched.advance(c.ids[li], c.nextRel[li], c.relIdx[li])
}

// finish books the flights still in the air at the horizon as
// unfinished, then settles the kernel's own end-of-run accounting.
func (c *comp) finish() {
	c.res.Unfinished += len(c.flights)
	for _, f := range c.flights {
		c.res.PerStream[c.streams[f.li].ID].Unfinished++
		c.creditFlight(f, c.cfg.Cycles)
	}
	c.k.Finish()
}
