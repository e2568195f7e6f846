package eventsim_test

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/grid"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// kernelCycles runs the event engine and returns its stepped-cycle
// count.
func kernelCycles(t *testing.T, set *stream.Set, cfg sim.Config) int {
	t.Helper()
	e, err := eventsim.New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return e.KernelCycles()
}

// TestKernelCyclesSoloFolds: streams that share no channel, each with a
// period at least its occupancy window, are single-stream components
// the solo path folds whole, so the kernel never steps.
func TestKernelCyclesSoloFolds(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	// Four eastbound rows: disjoint paths, 6 flits on period 40.
	for row := 0; row < 4; row++ {
		mustAdd(t, set, r, [6]int{4 * row, 4*row + 3, row + 1, 40, 6, 40})
	}
	for _, depth := range []int{1, 2} {
		cfg := sim.Config{Cycles: 3000, Warmup: 100, BufferDepth: depth}
		if n := kernelCycles(t, set, cfg); n != 0 {
			t.Errorf("depth %d: %d kernel cycles, want 0", depth, n)
		}
		runBoth(t, set, cfg, "solo")
	}
}

// TestKernelCyclesContended: the pinned 60-stream, 15-level replication
// contends, so the kernel steps some cycles, but never more than every
// component stepping every cycle; the count is the same on every run.
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
	n := kernelCycles(t, set, cfg)
	if n <= 0 || n > cfg.Cycles*set.Len() {
		t.Fatalf("%d kernel cycles, want in (0, %d]", n, cfg.Cycles*set.Len())
	}
	if again := kernelCycles(t, set, cfg); again != n {
		t.Fatalf("kernel cycles %d then %d on identical runs", n, again)
	}
	t.Logf("%d kernel cycles of %d stream-cycles", n, cfg.Cycles*set.Len())
}
