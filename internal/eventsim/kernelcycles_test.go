package eventsim_test

import (
	"fmt"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/grid"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// counts is what the event engine reports about how it ran.
type counts struct {
	cycles, msgCycles, solo int
}

// kernelCounts runs the event engine and returns its counts.
func kernelCounts(t *testing.T, set *stream.Set, cfg sim.Config) counts {
	t.Helper()
	e, err := eventsim.New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return counts{e.KernelCycles(), e.KernelMessageCycles(), e.SoloComponents()}
}

// soloRows adds n eastbound rows of a 4x4 mesh: disjoint paths, 6
// flits on period 40, so each is a component the solo path folds.
func soloRows(t *testing.T, n int) *stream.Set {
	t.Helper()
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	for row := 0; row < n; row++ {
		mustAdd(t, set, r, [6]int{4 * row, 4*row + 3, row + 1, 40, 6, 40})
	}
	return set
}

// TestKernelCyclesSoloFolds: streams that share no channel, each with a
// period at least its occupancy window, are single-stream components
// the solo path folds whole, so the kernel never steps.
func TestKernelCyclesSoloFolds(t *testing.T) {
	set := soloRows(t, 4)
	for _, depth := range []int{1, 2} {
		cfg := sim.Config{Cycles: 3000, Warmup: 100, BufferDepth: depth}
		if got, want := kernelCounts(t, set, cfg), (counts{solo: 4}); got != want {
			t.Errorf("depth %d: counts %+v, want %+v", depth, got, want)
		}
		runBoth(t, set, cfg, "solo")
	}
}

// TestSoloComponentsBuildNoKernel: a component the solo path folds
// books its flits straight into the result, so each one costs a few
// small allocations, not a cycle kernel's link, VC and path tables.
func TestSoloComponentsBuildNoKernel(t *testing.T) {
	allocs := func(set *stream.Set) float64 {
		return testing.AllocsPerRun(5, func() {
			e, err := eventsim.New(set, sim.Config{Cycles: 3000, Warmup: 100})
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
		})
	}
	one, four := allocs(soloRows(t, 1)), allocs(soloRows(t, 4))
	if per := (four - one) / 3; per > 16 {
		t.Errorf("%.1f allocations per solo component (%.0f for one, %.0f for four), want <= 16", per, one, four)
	}
}

// TestFlightsFlyBesideKernel: two streams contend on a row of a 4x4
// mesh, and a third stream shares only the first link of one of them.
// Its releases fall while the two contending messages hold the kernel,
// but after both are done with that link, so it flies beside them:
// the kernel steps exactly the message-cycles it steps without it.
func TestFlightsFlyBesideKernel(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	specs := [][6]int{
		{0, 3, 2, 40, 16, 40}, // 0→1→2→3, preempts the next on 1→2 and 2→3
		{1, 3, 1, 40, 16, 80}, // 1→2→3, delivered about 35 cycles after release
		{0, 1, 3, 40, 4, 40},  // 0→1, released when the first stream's tail has passed it
	}
	offsets := []int{0, 0, 16}
	var pair, all counts
	for _, n := range []int{2, 3} {
		set := stream.NewSet(m)
		for _, sp := range specs[:n] {
			mustAdd(t, set, r, sp)
		}
		cfg := sim.Config{Cycles: 2000, Warmup: 100, Arbiter: sim.Preemptive, Offsets: offsets[:n]}
		runBoth(t, set, cfg, fmt.Sprintf("%d streams", n))
		if n == 2 {
			pair = kernelCounts(t, set, cfg)
		} else {
			all = kernelCounts(t, set, cfg)
		}
	}
	if pair.msgCycles == 0 || all.msgCycles != pair.msgCycles || all.cycles != pair.cycles {
		t.Fatalf("kernel counts %+v with the third stream, %+v without: want equal and nonzero", all, pair)
	}
}

// TestKernelCyclesContended: the pinned 60-stream, 15-level replication
// contends, so the kernel steps some cycles, but never more than every
// component stepping every cycle; each stepped cycle holds a message,
// and every count is the same on every run.
func TestKernelCyclesContended(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon replication skipped in -short")
	}
	topo, err := topology.Parse("mesh2d-10x10")
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := workload.GenerateOn(topo, workload.PaperDefaults(60, 15, grid.PointSeed(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Cycles: 30000, Warmup: 200, Arbiter: sim.Preemptive, BufferDepth: 2}
	n := kernelCounts(t, set, cfg)
	if n.cycles <= 0 || n.cycles > cfg.Cycles*set.Len() {
		t.Fatalf("%d kernel cycles, want in (0, %d]", n.cycles, cfg.Cycles*set.Len())
	}
	if n.msgCycles < n.cycles || n.msgCycles > cfg.Cycles*set.Len() {
		t.Fatalf("%d kernel message-cycles, want in [%d, %d]", n.msgCycles, n.cycles, cfg.Cycles*set.Len())
	}
	if again := kernelCounts(t, set, cfg); again != n {
		t.Fatalf("counts %+v then %+v on identical runs", n, again)
	}
	t.Logf("%d kernel cycles and %d message-cycles of %d stream-cycles; %d solo components",
		n.cycles, n.msgCycles, cfg.Cycles*set.Len(), n.solo)
}
