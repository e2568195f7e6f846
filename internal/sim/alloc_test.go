package sim_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestFIFOQueueSteadyAllocs bounds the allocations a steady
// non-preemptive run adds as its horizon doubles. Served headers leave
// the front of a link's single-VC queue every time it frees; the
// queue must reuse its array rather than reallocate on the next
// arrival, so the second half of the run allocates next to nothing.
func TestFIFOQueueSteadyAllocs(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	// Four streams funnelling into node 5 from every side, each with a
	// period shorter than the shared links can drain them all.
	for _, sp := range [][6]int{
		{4, 7, 4, 16, 5, 60},
		{6, 13, 3, 18, 4, 60},
		{1, 9, 2, 17, 6, 60},
		{9, 5, 1, 15, 3, 60},
	} {
		if _, err := set.Add(r, topology.NodeID(sp[0]), topology.NodeID(sp[1]), sp[2], sp[3], sp[4], sp[5]); err != nil {
			t.Fatal(err)
		}
	}
	for _, arb := range []sim.ArbiterKind{sim.NonPreemptiveFIFO, sim.NonPreemptivePriority} {
		allocs := func(cycles int) float64 {
			return testing.AllocsPerRun(5, func() {
				s, err := sim.New(set, sim.Config{Cycles: cycles, Warmup: 100, Arbiter: arb})
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
			})
		}
		short, long := allocs(10000), allocs(20000)
		t.Logf("%v: %.0f allocations at 10000 cycles, %.0f at 20000", arb, short, long)
		if long-short > 20 {
			t.Errorf("%v: doubling the horizon added %.0f allocations (%.0f -> %.0f), want <= 20",
				arb, long-short, short, long)
		}
	}
}
