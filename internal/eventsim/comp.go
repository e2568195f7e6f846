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
// while none contend and messages of its sim.Kernel, stepped cycle by
// cycle, while any do.
type comp struct {
	cfg   *sim.Config
	res   *sim.Result
	sched *schedule
	k     *sim.Kernel

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

	// Jump-mode state: analytic flights, in release order, and the
	// scheduled first-interaction cycle for kernel re-entry.
	flights []flight
	reentry int

	// Materialisation scratch (stamp order and staircase positions).
	ordKeys   []flightOrder
	ordIdx    []int
	ordStamps []int64
	crossed   []int

	steps int // cycles stepped in the kernel
}

func newComp(s *Simulator, ids []int) *comp {
	n := len(ids)
	c := &comp{
		cfg:      &s.cfg,
		res:      s.res,
		sched:    s.sched,
		k:        sim.NewKernel(s.set, ids, s.cfg, s.res),
		ids:      ids,
		streams:  make([]*stream.Stream, n),
		jumpable: s.set.RouterLatency == 0,
		lat:      make([]int, n),
		wl:       make([]int, n),
		pairs:    make([][][]ipair, n),
		nextRel:  make([]int, n),
		relIdx:   make([]int, n),
		nextSeq:  make([]int, n),
		reentry:  farCycle,
	}
	for li, gi := range ids {
		st := s.set.Get(stream.ID(gi))
		c.streams[li] = st
		H := st.Path.Hops()
		c.lat[li] = freeLat(H, st.Length, s.cfg.BufferDepth)
		c.wl[li] = c.lat[li] - H + 1
		c.nextRel[li], c.relIdx[li] = c.sched.start(gi)
	}
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

// run simulates the component to the configured horizon, alternating
// between analytic jump mode and the exact cycle kernel, then settles
// the end-of-run accounting. The component is in jump mode exactly
// while its kernel holds no message: enterCycleMode hands every flight
// to the kernel, and the kernel hands back only once it drains. A
// drained kernel holds no VC and no pending header, which is exactly
// the state jump mode assumes.
func (c *comp) run() {
	if !c.runSolo() {
		cycles := c.cfg.Cycles
		for c.k.Now() < cycles {
			if c.k.Drained() {
				if c.jumpable {
					c.jumpStep()
					continue
				}
				// Without jump mode (RouterLatency > 0) the kernel state
				// cannot change until the next release: skip the gap.
				t := c.nextRelease()
				if t >= cycles {
					break
				}
				c.k.SetNow(t)
			}
			c.release()
			c.k.Step()
			c.steps++
		}
	}
	c.finish()
}

// nextRelease returns the earliest pending release cycle.
func (c *comp) nextRelease() int {
	t := c.cfg.Cycles
	for _, r := range c.nextRel {
		if r < t {
			t = r
		}
	}
	return t
}

// release hands the kernel every release due this cycle, in stream
// order like sim.Simulator.
func (c *comp) release() {
	now := c.k.Now()
	for li := range c.streams {
		for c.nextRel[li] <= now {
			c.k.Release(li, c.nextSeq[li], c.nextRel[li])
			c.consumeRelease(li)
		}
	}
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
