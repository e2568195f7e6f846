package core

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// allIDs lists every stream ID of set in order.
func allIDs(set *stream.Set) []stream.ID {
	ids := make([]stream.ID, set.Len())
	for i := range ids {
		ids[i] = stream.ID(i)
	}
	return ids
}

// parallelReport is Determine-Feasibility with every stream's Cal_U
// fanned over the worker pool: NewAnalyzer, CalUBatchParallel over all
// streams, then NewReport.
func parallelReport(set *stream.Set, workers int) (*Report, error) {
	a, err := NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	us, err := a.CalUBatchParallel(allIDs(set), workers)
	if err != nil {
		return nil, err
	}
	return NewReport(set, us), nil
}

// TestParallelMatchesSequential: the pooled feasibility test returns
// exactly the sequential verdicts for random sets and all worker
// counts.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		set := randomMeshSet(t, rng, 4+rng.Intn(10))
		seq, err := DetermineFeasibility(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 7} {
			par, err := parallelReport(set, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Feasible != seq.Feasible {
				t.Fatalf("trial %d workers %d: feasible %v vs %v", trial, workers, par.Feasible, seq.Feasible)
			}
			for i := range seq.Verdicts {
				if par.Verdicts[i] != seq.Verdicts[i] {
					t.Fatalf("trial %d workers %d stream %d: %+v vs %+v",
						trial, workers, i, par.Verdicts[i], seq.Verdicts[i])
				}
			}
		}
	}
}

func TestParallelOnWorkedExample(t *testing.T) {
	set := paperExample(t)
	rep, err := parallelReport(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{7, 8, 26, 30, 33}
	for i, v := range rep.Verdicts {
		if v.U != want[i] {
			t.Fatalf("U_%d = %d, want %d", i, v.U, want[i])
		}
	}
	if !rep.Feasible {
		t.Fatal("worked example should be feasible")
	}
}

func TestParallelRejectsInvalidSet(t *testing.T) {
	set := paperExample(t)
	set.Streams[0].Latency = 1
	if _, err := parallelReport(set, 2); err == nil {
		t.Fatal("accepted invalid set")
	}
}

func TestMaxFeasibleLength(t *testing.T) {
	set := paperExample(t)
	// M1 currently has C=2 and slack; it can grow but not unboundedly
	// (it shares channels with M2 and M3 whose deadlines bind).
	got, err := MaxFeasibleLength(set, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got < 2 {
		t.Fatalf("MaxFeasibleLength = %d, below the current feasible length 2", got)
	}
	if got >= 60 {
		t.Fatalf("MaxFeasibleLength = %d, expected a binding constraint below the limit", got)
	}
	// The set must be untouched afterwards.
	if set.Get(1).Length != 2 {
		t.Fatalf("stream mutated: length %d", set.Get(1).Length)
	}
	rep, err := DetermineFeasibility(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("set changed by sensitivity probe: %v %v", rep, err)
	}
	// Setting M1 to the reported maximum must be feasible, +1 must not.
	set.Get(1).Length = got
	set.Get(1).Latency = set.Get(1).Path.Hops() + got - 1
	rep, err = DetermineFeasibility(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("reported maximum %d not feasible", got)
	}
	set.Get(1).Length = got + 1
	set.Get(1).Latency = set.Get(1).Path.Hops() + got
	rep, err = DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatalf("maximum %d not tight: %d still feasible", got, got+1)
	}
}

func TestMinFeasiblePeriod(t *testing.T) {
	set := paperExample(t)
	got, err := MinFeasiblePeriod(set, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 40 {
		t.Fatalf("MinFeasiblePeriod = %d, want in (0, 40]", got)
	}
	if set.Get(2).Period != 40 || set.Get(2).Deadline != 40 {
		t.Fatal("stream mutated by probe")
	}
	// The reported minimum is feasible; one less is not (unless at the
	// floor).
	set.Get(2).Period, set.Get(2).Deadline = got, got
	rep, err := DetermineFeasibility(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("reported minimum %d not feasible", got)
	}
	if got > 1 {
		set.Get(2).Period, set.Get(2).Deadline = got-1, got-1
		rep, err = DetermineFeasibility(set)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Feasible {
			t.Fatalf("minimum %d not tight", got)
		}
	}
}

func TestSensitivityErrors(t *testing.T) {
	set := paperExample(t)
	if _, err := MaxFeasibleLength(set, 99, 10); err == nil {
		t.Error("accepted unknown stream")
	}
	if _, err := MaxFeasibleLength(set, 1, 0); err == nil {
		t.Error("accepted zero limit")
	}
	if _, err := MinFeasiblePeriod(set, 99, 1); err == nil {
		t.Error("accepted unknown stream")
	}
	if _, err := MinFeasiblePeriod(set, 1, 0); err == nil {
		t.Error("accepted zero floor")
	}
	if _, err := MinFeasiblePeriod(set, 1, 999); err == nil {
		t.Error("accepted floor above period")
	}
}

// TestMaxFeasibleLengthInfeasibleBase: when the set is already
// infeasible at length 1, the search reports 0.
func TestMaxFeasibleLengthInfeasibleBase(t *testing.T) {
	set := paperExample(t)
	// Make M4's deadline impossible.
	set.Get(4).Deadline = 1
	got, err := MaxFeasibleLength(set, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}
