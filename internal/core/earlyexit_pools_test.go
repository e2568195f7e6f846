package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// assertCalUFullHorizon requires every stream's CalU, and its
// bound in want when want is non-nil, to equal Cal_U laid out to the
// stream's full deadline (CalUHorizon). It returns how many streams
// have a deadline of MaxSearchHorizon.
func assertCalUFullHorizon(t *testing.T, label string, set *stream.Set, want *core.Report) int {
	t.Helper()
	a, err := core.NewAnalyzer(set)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	capped := 0
	for _, s := range set.Streams {
		if s.Deadline == core.MaxSearchHorizon {
			capped++
		}
		u, err := a.CalU(s.ID)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		full, err := a.CalUHorizon(s.ID, s.Deadline)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if u != full {
			t.Fatalf("%s: stream %d (D %d): CalU = %d, full horizon = %d", label, s.ID, s.Deadline, u, full)
		}
		if want != nil && want.Verdicts[s.ID].U != full {
			t.Fatalf("%s: stream %d (D %d): controller U = %d, full horizon = %d", label, s.ID, s.Deadline, want.Verdicts[s.ID].U, full)
		}
	}
	return capped
}

// TestCalUEarlyExitPaperPools pins the early exit over the §5 pools the
// admission daemon is benchmarked on (40 streams, 8 levels, periods
// inflated, seeds 1–8): each full pool and three random subsets of it.
// Pools 5 and 7 each hold a stream whose inflated deadline is
// MaxSearchHorizon.
func TestCalUEarlyExitPaperPools(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	capped := 0
	for seed := int64(1); seed <= 8; seed++ {
		pool, _, err := workload.Generate(workload.PaperDefaults(40, 8, seed))
		if err != nil {
			t.Fatal(err)
		}
		capped += assertCalUFullHorizon(t, fmt.Sprintf("pool %d", seed), pool, nil)
		for sub := 0; sub < 3; sub++ {
			set := stream.NewSet(pool.Topology)
			for _, s := range pool.Streams {
				if rng.Intn(2) == 0 {
					c := *s
					c.ID = stream.ID(set.Len())
					set.Streams = append(set.Streams, &c)
				}
			}
			capped += assertCalUFullHorizon(t, fmt.Sprintf("pool %d subset %d", seed, sub), set, nil)
		}
	}
	if capped == 0 {
		t.Fatal("no stream with a MaxSearchHorizon deadline: the pools no longer exercise the long layouts")
	}
}

// TestCalUEarlyExitDaemonLaps replays loadgen.BuildSchedule laps of §5
// pools 5 and 7, the admission daemon's benchmark traffic, through an
// admit.Controller. After every committed mutation each live stream's
// bound must equal Cal_U laid out to its full deadline.
func TestCalUEarlyExitDaemonLaps(t *testing.T) {
	ops := 120
	if testing.Short() {
		ops = 40
	}
	for _, pool := range []int64{5, 7} {
		sc := loadgen.DefaultScheduleConfig(ops, 1000, 1)
		sc.Workload.Seed = pool
		sched, err := loadgen.BuildSchedule(sc)
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.NewMesh2D(sc.Workload.MeshW, sc.Workload.MeshH)
		ctl, err := admit.New(topo, admit.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.ForTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		handles := map[int][]admit.Handle{} // admit op seq -> handles
		capped := 0
		for _, op := range sched.Ops {
			switch op.Kind {
			case loadgen.OpAdmit, loadgen.OpJob:
				res, err := ctl.AdmitBatch(op.Specs)
				if err != nil || !res.Admitted {
					t.Fatalf("pool %d op %d: admission refused: %v", pool, op.Seq, err)
				}
				handles[op.Seq] = res.Handles
			case loadgen.OpWithdraw:
				if _, err := ctl.Withdraw(handles[op.Ref][op.RefIdx]); err != nil {
					t.Fatalf("pool %d op %d: %v", pool, op.Seq, err)
				}
			default:
				continue
			}
			set := stream.NewSet(topo)
			for _, ad := range ctl.Streams() {
				sp := ad.Spec
				if _, err := set.Add(r, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
					t.Fatal(err)
				}
			}
			capped += assertCalUFullHorizon(t, fmt.Sprintf("pool %d op %d", pool, op.Seq), set, ctl.Report())
		}
		if capped == 0 {
			t.Fatalf("pool %d: no live stream ever had a MaxSearchHorizon deadline", pool)
		}
	}
}
