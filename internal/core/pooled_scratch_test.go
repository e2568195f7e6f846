package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCalUReusesPooledScratch pins that one-shot Cal_U calls reuse the
// pooled scratch arena instead of growing a fresh one per call. The
// fixture is BenchmarkCalU's pool7-stream25-unbounded: stream 25 of §5
// pool 7 has no bound and lays its diagram out to its 2^21-slot
// deadline, about 6 MB of scratch per call when every call allocates
// its own. After one warm-up call, five more must allocate under 1 MiB
// in total.
func TestCalUReusesPooledScratch(t *testing.T) {
	set, _, err := workload.Generate(workload.PaperDefaults(40, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	calU := func() {
		t.Helper()
		u, err := a.CalU(25)
		if err != nil {
			t.Fatal(err)
		}
		if u != -1 {
			t.Fatalf("U = %d, want -1 (no bound)", u)
		}
	}
	calU()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		calU()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("five warm one-shot CalU calls allocated %d bytes, want under 1 MiB", got)
	}
}
