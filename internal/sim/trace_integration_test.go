package sim

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

// TestTraceIntegration: a traced run reconstructs coherent timelines —
// each delivered message holds every path channel exactly once, the
// intervals nest hop by hop, and the trace latency matches the stats.
func TestTraceIntegration(t *testing.T) {
	m := topology.NewMesh2D(5, 1)
	set := mustSet(t, m, [][6]int{{0, 4, 1, 50, 3, 50}})
	rec := &trace.Recorder{}
	s, err := New(set, Config{Cycles: 120, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	tls := rec.Timelines()
	if len(tls) != res.PerStream[0].Generated {
		t.Fatalf("%d timelines for %d generated", len(tls), res.PerStream[0].Generated)
	}
	delivered := 0
	for _, tl := range tls {
		if tl.Delivered < 0 {
			continue
		}
		delivered++
		if got := tl.Latency(); got != set.Get(0).Latency {
			t.Fatalf("trace latency %d, want %d", got, set.Get(0).Latency)
		}
		if len(tl.Intervals) != set.Get(0).Path.Hops() {
			t.Fatalf("message held %d channels, want %d hops", len(tl.Intervals), set.Get(0).Path.Hops())
		}
		for i, iv := range tl.Intervals {
			if iv.Link != set.Get(0).Path.Channels[i] {
				t.Fatalf("interval %d on %s, want %s", i, iv.Link, set.Get(0).Path.Channels[i])
			}
			if iv.To <= iv.From {
				t.Fatalf("empty interval: %+v", iv)
			}
			if i > 0 && iv.From < tl.Intervals[i-1].From {
				t.Fatal("downstream channel acquired before upstream")
			}
		}
	}
	if delivered != res.PerStream[0].Delivered {
		t.Fatalf("trace deliveries %d, stats %d", delivered, res.PerStream[0].Delivered)
	}
}

// TestStallDecomposition: an unloaded stream never stalls; a blocked
// low-priority stream accumulates arbitration stalls under preemption
// and VC stalls under single-channel switching.
func TestStallDecomposition(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	specs := [][6]int{
		{0, 7, 2, 20, 10, 100}, // hog, 50% load on the row
		{0, 7, 1, 80, 6, 300},  // victim sharing all channels
	}
	set := mustSet(t, m, specs)

	pre, err := New(set, Config{Cycles: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rp := pre.Run()
	hog := rp.PerStream[0]
	if hog.ArbStallCycles != 0 || hog.VCStallCycles != 0 || hog.BufferStallCycles != 0 {
		t.Fatalf("top priority should never stall: %+v", hog)
	}
	victim := rp.PerStream[1]
	if victim.ArbStallCycles+victim.BufferStallCycles == 0 {
		t.Fatalf("victim should stall under preemption: %+v", victim)
	}

	non, err := New(set, Config{Cycles: 4000, Arbiter: NonPreemptiveFIFO})
	if err != nil {
		t.Fatal(err)
	}
	rn := non.Run()
	if rn.PerStream[1].VCStallCycles == 0 {
		t.Fatalf("single-channel switching should produce VC stalls: %+v", rn.PerStream[1])
	}
}

// TestHoldStatsShowInversionHazard: under non-preemptive switching the
// blocked worm's maximum channel hold time far exceeds its service
// time, quantifying the Figure-2 hazard from the trace alone.
func TestHoldStatsShowInversionHazard(t *testing.T) {
	m := topology.NewMesh2D(4, 2)
	id := m.ID
	specs := [][6]int{
		{int(id(2, 0)), int(id(2, 1)), 2, 20, 18, 100},
		{int(id(0, 0)), int(id(2, 1)), 1, 60, 10, 200},
	}
	set := mustSet(t, m, specs)
	rec := &trace.Recorder{}
	s, err := New(set, Config{Cycles: 2000, Arbiter: NonPreemptiveFIFO, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// The victim's 10-flit worm should hold some channel far longer
	// than 10 cycles while blocked behind the hog; a hold still open at
	// the end of the run lasts until then.
	longest := 0
	for _, tl := range rec.Timelines() {
		if tl.Key.Stream != 1 {
			continue
		}
		for _, iv := range tl.Intervals {
			to := iv.To
			if to < 0 {
				to = 2000
			}
			if to-iv.From > longest {
				longest = to - iv.From
			}
		}
	}
	if longest <= 12 {
		t.Fatalf("expected long channel holds while blocked, got max %d", longest)
	}
}
