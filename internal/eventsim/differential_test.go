package eventsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/grid"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runBoth runs the cycle oracle and the event engine on identical
// inputs and fails unless the results are deeply identical — every
// per-stream counter, the full latency histograms, every per-channel
// tally, and the run-level scalars. On a mismatch it bisects the
// horizon, rerunning both engines in lockstep, and reports the first
// horizon at which they differ (one cycle shorter agrees) and what
// differs there.
func runBoth(t *testing.T, set *stream.Set, cfg sim.Config, label string) {
	t.Helper()
	want, got := runEngines(t, set, cfg, label)
	if reflect.DeepEqual(want, got) {
		return
	}
	lo, hi := cfg.Warmup, cfg.Cycles // the horizon must exceed the warmup
	for hi-lo > 1 {
		c := cfg
		c.Cycles = lo + (hi-lo)/2
		w, g := runEngines(t, set, c, label)
		if reflect.DeepEqual(w, g) {
			lo = c.Cycles
		} else {
			hi, want, got = c.Cycles, w, g
		}
	}
	label = fmt.Sprintf("%s: engines first differ at horizon %d", label, hi)
	for i := range want.PerStream {
		if !reflect.DeepEqual(want.PerStream[i], got.PerStream[i]) {
			t.Fatalf("%s: stream %d differs:\n cycle: %+v\n event: %+v",
				label, i, want.PerStream[i], got.PerStream[i])
		}
	}
	if !reflect.DeepEqual(want.PerChannel, got.PerChannel) {
		t.Fatalf("%s: per-channel stats differ:\n cycle: %v\n event: %v",
			label, want.PerChannel, got.PerChannel)
	}
	t.Fatalf("%s: results differ: cycle {Unfinished:%d FirstDeadlock:%d}, event {Unfinished:%d FirstDeadlock:%d}",
		label, want.Unfinished, want.FirstDeadlockCycle, got.Unfinished, got.FirstDeadlockCycle)
}

// runEngines returns the cycle oracle's and the event engine's results
// for one configuration.
func runEngines(t *testing.T, set *stream.Set, cfg sim.Config, label string) (oracle, event *sim.Result) {
	t.Helper()
	o, err := sim.New(set, cfg)
	if err != nil {
		t.Fatalf("%s: sim.New: %v", label, err)
	}
	e, err := eventsim.New(set, cfg)
	if err != nil {
		t.Fatalf("%s: eventsim.New: %v", label, err)
	}
	return o.Run(), e.Run()
}

// TestDifferentialBattery pins the event engine against the cycle
// oracle over generated §5-style workloads: five topologies, three
// generator seeds each, every arbiter, both interesting buffer depths,
// and one extra knob at a time (strict arbitration, deadline drops,
// sporadic jitter, release offsets, deadlock detection) — 720 full
// simulations compared stat for stat.
func TestDifferentialBattery(t *testing.T) {
	topos := []struct {
		name    string
		streams int
		plevels int
	}{
		{"mesh2d-6x6", 14, 4},
		{"mesh2d-10x10", 20, 4},
		{"ring-8", 8, 3},
		{"hypercube-3", 7, 2},
		{"torus2d-4x4", 12, 4},
	}
	arbs := []sim.ArbiterKind{sim.Preemptive, sim.NonPreemptiveFIFO, sim.NonPreemptivePriority, sim.Li}
	extras := []string{"plain", "strict", "droplate", "jitter", "offsets", "deadlock"}
	total := 0
	for _, tp := range topos {
		topo, err := topology.Parse(tp.name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			wcfg := workload.PaperDefaults(tp.streams, tp.plevels, seed)
			set, _, err := workload.GenerateOn(topo, wcfg)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", tp.name, seed, err)
			}
			for _, arb := range arbs {
				for _, depth := range []int{1, 2} {
					for _, extra := range extras {
						cfg := sim.Config{Cycles: 1200, Warmup: 100, Arbiter: arb, BufferDepth: depth}
						switch extra {
						case "strict":
							cfg.StrictPhysicalPriority = true
						case "droplate":
							cfg.DropLate = true
						case "jitter":
							cfg.SporadicJitter = 9
							cfg.JitterSeed = seed * 7
						case "offsets":
							offs := make([]int, set.Len())
							for i := range offs {
								offs[i] = (i * 11) % 17
							}
							cfg.Offsets = offs
						case "deadlock":
							cfg.DeadlockThreshold = 40
						}
						runBoth(t, set, cfg,
							fmt.Sprintf("%s/seed%d/%v/d%d/%s", tp.name, seed, arb, depth, extra))
						total++
					}
				}
			}
		}
	}
	if total < 500 {
		t.Fatalf("battery ran %d configs, want >= 500", total)
	}
	t.Logf("differential battery: %d configs byte-identical", total)
}

func mustAdd(t *testing.T, set *stream.Set, r routing.Router, sp [6]int) {
	t.Helper()
	if _, err := set.Add(r, topology.NodeID(sp[0]), topology.NodeID(sp[1]), sp[2], sp[3], sp[4], sp[5]); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialStress hammers the regimes the generated workloads
// rarely reach: periods shorter than the unloaded latency (back-to-back
// instances of one stream in flight), heavy funnel contention on shared
// links, single-hop paths, and single-flit messages — the cases that
// exercise every jump→cycle→jump transition path.
func TestDifferentialStress(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	builders := []struct {
		name  string
		specs [][6]int
	}{
		// One stream, 6 hops, 8 flits (L=13 at depth 2), period 5:
		// permanently overlapping with itself.
		{"selfoverlap", [][6]int{{0, 15, 1, 5, 8, 40}}},
		// Three streams sharing the top row eastbound, periods near L.
		{"sharedpath", [][6]int{
			{0, 3, 3, 11, 4, 30},
			{1, 3, 2, 13, 6, 30},
			{2, 3, 1, 9, 3, 30},
		}},
		// Funnel: four streams converging on node 5 from all sides.
		{"funnel", [][6]int{
			{4, 5, 4, 8, 5, 25},
			{6, 5, 3, 10, 4, 25},
			{1, 5, 2, 9, 6, 25},
			{9, 5, 1, 7, 3, 25},
		}},
		// Degenerate shapes: single-hop path, single-flit messages, a
		// long worm on a short period, all crossing at node 1.
		{"degenerate", [][6]int{
			{0, 1, 2, 4, 1, 12},
			{1, 2, 1, 6, 9, 18},
			{5, 1, 3, 5, 1, 10},
		}},
	}
	arbs := []sim.ArbiterKind{sim.Preemptive, sim.NonPreemptiveFIFO, sim.NonPreemptivePriority, sim.Li}
	for _, b := range builders {
		set := stream.NewSet(m)
		for _, sp := range b.specs {
			mustAdd(t, set, r, sp)
		}
		for _, arb := range arbs {
			for _, depth := range []int{1, 2, 3} {
				for _, extra := range []string{"plain", "strict", "droplate", "deadlock", "warmup0"} {
					cfg := sim.Config{Cycles: 2000, Warmup: 150, Arbiter: arb, BufferDepth: depth}
					switch extra {
					case "strict":
						cfg.StrictPhysicalPriority = true
					case "droplate":
						cfg.DropLate = true
					case "deadlock":
						cfg.DeadlockThreshold = 20
					case "warmup0":
						cfg.Warmup = 0
					}
					runBoth(t, set, cfg,
						fmt.Sprintf("%s/%v/d%d/%s", b.name, arb, depth, extra))
				}
			}
		}
	}
}

// TestDifferentialRouterLatency pins the cycle-mode-only path: with a
// router pipeline the staircase forms do not apply, so the event
// engine must fall back to pure (component-decomposed, idle-skipping)
// cycle stepping and still match exactly.
func TestDifferentialRouterLatency(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	for rl := 1; rl <= 2; rl++ {
		set := stream.NewSetWithRouterLatency(m, rl)
		for _, sp := range [][6]int{
			{0, 15, 3, 40, 6, 120},
			{3, 12, 2, 35, 4, 110},
			{5, 6, 1, 25, 8, 90},
			{4, 7, 2, 50, 3, 100},
		} {
			mustAdd(t, set, r, sp)
		}
		for _, arb := range []sim.ArbiterKind{sim.Preemptive, sim.Li} {
			for _, depth := range []int{1, 2} {
				for _, drop := range []bool{false, true} {
					cfg := sim.Config{Cycles: 1500, Warmup: 100, Arbiter: arb, BufferDepth: depth, DropLate: drop}
					runBoth(t, set, cfg, fmt.Sprintf("rl%d/%v/d%d/drop%v", rl, arb, depth, drop))
				}
			}
		}
	}
}

// TestDifferentialLongHorizon runs the exact §5 benchmark workload
// (20 streams, 4 levels, seed 555) for the full 30000-cycle horizon —
// the configuration BenchmarkEventSim measures must also be the
// configuration proven identical — and then the first trial of each
// of Tables 1–5 exactly as exp.RunTable simulates it: generated with
// the table's shape and seed, periods inflated at the 65536-slot cap,
// 30000 flit times under the preemptive arbiter.
func TestDifferentialLongHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon differential skipped in -short")
	}
	set, _, err := workload.Generate(workload.PaperDefaults(20, 4, 555))
	if err != nil {
		t.Fatal(err)
	}
	for _, arb := range []sim.ArbiterKind{sim.Preemptive, sim.NonPreemptiveFIFO, sim.Li} {
		cfg := sim.Config{Cycles: 30000, Warmup: 200, Arbiter: arb}
		runBoth(t, set, cfg, fmt.Sprintf("paper/%v", arb))
	}
	for _, tb := range []struct {
		table, streams, plevels int
		seed                    int64
	}{
		{1, 20, 1, 1001},
		{2, 60, 1, 1002},
		{3, 20, 4, 1003},
		{4, 20, 5, 1004},
		{5, 60, 15, 1005},
	} {
		wcfg := workload.PaperDefaults(tb.streams, tb.plevels, tb.seed)
		wcfg.InflatePeriods = false
		set, analyzer, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Inflate(set, analyzer); err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Cycles: 30000, Warmup: 200, Arbiter: sim.Preemptive}
		runBoth(t, set, cfg, fmt.Sprintf("table%d/seed%d", tb.table, tb.seed))
	}
}

// TestDifferentialPinnedDivergences pins full-horizon §5-shaped
// replications on which an earlier event engine, one that froze
// blocked messages through jump mode, booked a few cycles of progress
// as stall (each case's comment names the first stream that differed).
// The seeds come from rtwmc-style studies (grid.PointSeed(base,
// replication)) and from a sweep of plain generator seeds.
func TestDifferentialPinnedDivergences(t *testing.T) {
	cases := []struct {
		name             string
		topo             string
		streams, plevels int
		arb              sim.ArbiterKind
		seed             int64
	}{
		{"base2-rep3", "mesh2d-10x10", 20, 4, sim.Preemptive, grid.PointSeed(2, 3)},            // stream 17: SumLatency 10610, oracle 10608
		{"base555-rep6", "mesh2d-10x10", 20, 4, sim.Preemptive, grid.PointSeed(555, 6)},        // EXPERIMENTS.md's study, stream 16
		{"contended-base1-rep0", "mesh2d-10x10", 60, 15, sim.Preemptive, grid.PointSeed(1, 0)}, // stream 21
		{"seed120", "mesh2d-10x10", 20, 4, sim.Preemptive, 120},                                // stream 18
		{"seed132-li", "mesh2d-10x10", 20, 4, sim.Li, 132},                                     // stream 1
		{"torus-seed122", "torus2d-4x4", 12, 4, sim.Preemptive, 122},                           // stream 1
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.Parse(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			set, _, err := workload.GenerateOn(topo, workload.PaperDefaults(tc.streams, tc.plevels, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Cycles: 30000, Warmup: 200, Arbiter: tc.arb, BufferDepth: 2}
			runBoth(t, set, cfg, fmt.Sprintf("%s/%d-%d/%v/seed%d", tc.topo, tc.streams, tc.plevels, tc.arb, tc.seed))
		})
	}
}
