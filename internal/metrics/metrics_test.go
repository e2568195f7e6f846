package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

func simSet(t *testing.T) (*stream.Set, *sim.Result) {
	t.Helper()
	m := topology.NewMesh2D(8, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	add := func(p, period, c int) {
		if _, err := set.Add(r, 0, 7, p, period, c, period); err != nil {
			t.Fatal(err)
		}
	}
	add(2, 40, 3)  // high priority
	add(1, 50, 10) // low priority
	s, err := sim.New(set, sim.Config{Cycles: 5000, Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	return set, s.Run()
}

func TestBuildAndFormat(t *testing.T) {
	set, res := simSet(t)
	us := []int{9, 100}
	tab, err := Build("test table", set, us, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.PerStream) != 2 {
		t.Fatalf("per-stream rows = %d", len(tab.PerStream))
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("level rows = %d", len(tab.Rows))
	}
	if tab.Rows[0].Priority != 2 || tab.Rows[1].Priority != 1 {
		t.Fatalf("rows not in descending priority: %+v", tab.Rows)
	}
	// High priority unblocked: mean latency == L == U -> ratio 1.
	if math.Abs(tab.Rows[0].MeanRatio-1.0) > 1e-9 {
		t.Fatalf("top ratio = %f, want 1.0", tab.Rows[0].MeanRatio)
	}
	if tab.TopLevelMeanRatio() != tab.Rows[0].MeanRatio {
		t.Fatal("TopLevelMeanRatio inconsistent")
	}
	out := tab.Format()
	for _, want := range []string{"test table", "P = 2", "P = 1", "mean/U"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestBuildExcludesUnboundedStreams(t *testing.T) {
	set, res := simSet(t)
	us := []int{9, -1} // low priority has no bound
	tab, err := Build("t", set, us, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %+v, want only the bounded level", tab.Rows)
	}
	if len(tab.PerStream) != 2 {
		t.Fatal("PerStream should keep all streams")
	}
}

func TestBuildDetectsExceededBounds(t *testing.T) {
	set, res := simSet(t)
	us := []int{9, 10} // low priority bound artificially tight
	tab, err := Build("t", set, us, res)
	if err != nil {
		t.Fatal(err)
	}
	low := tab.Rows[1]
	if low.Exceeded != 1 {
		t.Fatalf("exceeded = %d, want 1", low.Exceeded)
	}
	if !tab.PerStream[1].Exceeded {
		t.Fatal("per-stream exceeded flag unset")
	}
}

func TestBuildValidation(t *testing.T) {
	set, res := simSet(t)
	if _, err := Build("t", set, []int{9}, res); err == nil {
		t.Fatal("accepted mismatched bounds length")
	}
}

func TestCSVExport(t *testing.T) {
	set, res := simSet(t)
	tab, err := Build("t", set, []int{9, 100}, res)
	if err != nil {
		t.Fatal(err)
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %d\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "stream,priority,U") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,2,9,") {
		t.Fatalf("row: %q", lines[1])
	}
	for _, ln := range lines {
		if strings.Count(ln, ",") != 8 {
			t.Fatalf("column count wrong in %q", ln)
		}
	}
}

func TestEmptyTableRatios(t *testing.T) {
	tab := &RatioTable{}
	if !math.IsNaN(tab.TopLevelMeanRatio()) {
		t.Fatal("empty table ratio should be NaN")
	}
}
