package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/stream"
)

// failingCalU wraps the real analyzer but fails for the given streams.
func failingCalU(t *testing.T, set *stream.Set, fail map[stream.ID]error) func(stream.ID) (int, error) {
	t.Helper()
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	return func(id stream.ID) (int, error) {
		if err := fail[id]; err != nil {
			return 0, err
		}
		return a.CalU(id)
	}
}

// TestParallelErrorPath pins the worker-bailout semantics: a calU
// failure yields (nil, error) — never bounds in which the skipped
// streams' zero values read as results.
func TestParallelErrorPath(t *testing.T) {
	set := paperExample(t)
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 2, 3, 16} {
		us, err := calUPool(allIDs(set), workers, failingCalU(t, set, map[stream.ID]error{2: boom}))
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v does not wrap the calU failure", workers, err)
		}
		if !strings.Contains(err.Error(), "stream 2") {
			t.Fatalf("workers=%d: error %q does not name the failing stream", workers, err)
		}
		if us != nil {
			t.Fatalf("workers=%d: got bounds alongside the error: %v", workers, us)
		}
	}
}

// TestParallelErrorPathSkipsRemainingWork: after the first failure the
// pool must stop burning CPU on verdicts it will throw away. With one
// worker the scan order is the job order, so everything after the
// failing stream must be skipped.
func TestParallelErrorPathSkipsRemainingWork(t *testing.T) {
	set := paperExample(t)
	var calls atomic.Int32
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	calU := func(id stream.ID) (int, error) {
		calls.Add(1)
		if id == 1 {
			return 0, errors.New("boom")
		}
		return a.CalU(id)
	}
	if _, err := calUPool(allIDs(set), 1, calU); err == nil {
		t.Fatal("error swallowed")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calU called %d times with 1 worker, want 2 (stream 0 and the failure)", got)
	}
}

// TestParallelAllFailing: every stream failing still returns cleanly
// (no deadlock on the error channel) and reports the smallest observed
// stream ID.
func TestParallelAllFailing(t *testing.T) {
	set := paperExample(t)
	fail := map[stream.ID]error{}
	for _, s := range set.Streams {
		fail[s.ID] = fmt.Errorf("fail %d", s.ID)
	}
	for _, workers := range []int{1, 2, 5, 32} {
		us, err := calUPool(allIDs(set), workers, failingCalU(t, set, fail))
		if err == nil || us != nil {
			t.Fatalf("workers=%d: want (nil, error), got (%v, %v)", workers, us, err)
		}
	}
	// Single worker sees stream 0 first, deterministically.
	_, err := calUPool(allIDs(set), 1, failingCalU(t, set, fail))
	if err == nil || !strings.Contains(err.Error(), "stream 0") {
		t.Fatalf("single worker should report stream 0, got %v", err)
	}
}

// TestParallelHammer drives the Cal_U pool — success and error paths —
// with many worker counts over randomized sets. It exists to run under
// `go test -race` (make test-race): every iteration exercises the
// shared bound writes, the failure flag and the error channel against
// the race detector.
func TestParallelHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	boom := errors.New("boom")
	for trial := 0; trial < 8; trial++ {
		set := randomMeshSet(t, rng, 6+rng.Intn(12))
		want, err := DetermineFeasibility(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8, 33} {
			rep, err := parallelReport(set, workers)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if rep.Feasible != want.Feasible {
				t.Fatalf("trial %d workers %d: feasible %v, want %v",
					trial, workers, rep.Feasible, want.Feasible)
			}
			for i := range want.Verdicts {
				if rep.Verdicts[i] != want.Verdicts[i] {
					t.Fatalf("trial %d workers %d stream %d: %+v vs %+v",
						trial, workers, i, rep.Verdicts[i], want.Verdicts[i])
				}
			}

			// Error path under the same contention: fail a random
			// stream mid-set.
			fail := map[stream.ID]error{stream.ID(rng.Intn(set.Len())): boom}
			us, err := calUPool(allIDs(set), workers, failingCalU(t, set, fail))
			if err == nil || us != nil {
				t.Fatalf("trial %d workers %d: error path returned (%v, %v)",
					trial, workers, us, err)
			}
		}
	}
}
