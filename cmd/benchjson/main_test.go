package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU @ 3.00GHz
BenchmarkTable1-8   	       1	118800000 ns/op	 123456 B/op	   89256 allocs/op	  0.9123 top-ratio	  0.4456 bottom-ratio
BenchmarkTable1-8: logs that start with the benchmark name must not parse
BenchmarkCalU-8   	   76214	     15009 ns/op	    2048 B/op	      26 allocs/op
pkg: repro/internal/core
BenchmarkOther   	     100	    500000 ns/op
PASS
ok  	repro	21.1s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.CPU != "Example CPU @ 3.00GHz" {
		t.Fatalf("context = %q/%q/%q", doc.GOOS, doc.GOARCH, doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkTable1" || b.Procs != 8 || b.Iterations != 1 || b.Pkg != "repro" {
		t.Fatalf("benchmark[0] = %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 118800000, "B/op": 123456, "allocs/op": 89256,
		"top-ratio": 0.9123, "bottom-ratio": 0.4456,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metrics[%q] = %v, want %v", unit, got, want)
		}
	}
	// A benchmark without -P suffix and under a later pkg header.
	b = doc.Benchmarks[2]
	if b.Name != "BenchmarkOther" || b.Procs != 0 || b.Pkg != "repro/internal/core" {
		t.Fatalf("benchmark[2] = %+v", b)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok \trepro\t0.1s\n")); err == nil {
		t.Fatal("empty bench output should be an error")
	}
}

// TestFoldRuns folds -count runs: three lines of one benchmark become
// one entry with the per-metric median, min and max; a benchmark with
// one line has all three equal; the same name under another package
// stays a separate entry.
func TestFoldRuns(t *testing.T) {
	const runs = `pkg: repro
BenchmarkTable1-2   	       1	 300 ns/op	  10 B/op	  0.5 top-ratio
BenchmarkTable1-2   	       1	 100 ns/op	  30 B/op	  0.5 top-ratio
BenchmarkTable1-2   	       2	 200 ns/op	  20 B/op	  0.5 top-ratio
BenchmarkCalU/worked-example-2   	    1000	      15 ns/op
pkg: repro/internal/core
BenchmarkTable1-2   	       1	 999 ns/op
`
	doc, err := parse(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("folded into %d entries, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	check := func(b Benchmark, name, pkg string, runs, iters int, median, min, max map[string]float64) {
		t.Helper()
		if b.Name != name || b.Pkg != pkg || b.Procs != 2 || b.Runs != runs || b.Iterations != iters {
			t.Fatalf("entry %+v, want %s in %s, %d runs, %d iterations", b, name, pkg, runs, iters)
		}
		for unit, want := range median {
			if b.Metrics[unit] != want || b.Min[unit] != min[unit] || b.Max[unit] != max[unit] {
				t.Errorf("%s %s: median/min/max %v/%v/%v, want %v/%v/%v", name, unit,
					b.Metrics[unit], b.Min[unit], b.Max[unit], want, min[unit], max[unit])
			}
		}
		if len(b.Metrics) != len(median) || len(b.Min) != len(median) || len(b.Max) != len(median) {
			t.Errorf("%s: metric maps %v / %v / %v, want %d units", name, b.Metrics, b.Min, b.Max, len(median))
		}
	}
	check(doc.Benchmarks[0], "BenchmarkTable1", "repro", 3, 4,
		map[string]float64{"ns/op": 200, "B/op": 20, "top-ratio": 0.5},
		map[string]float64{"ns/op": 100, "B/op": 10, "top-ratio": 0.5},
		map[string]float64{"ns/op": 300, "B/op": 30, "top-ratio": 0.5})
	one := map[string]float64{"ns/op": 15}
	check(doc.Benchmarks[1], "BenchmarkCalU/worked-example", "repro", 1, 1000, one, one, one)
	other := map[string]float64{"ns/op": 999}
	check(doc.Benchmarks[2], "BenchmarkTable1", "repro/internal/core", 1, 1, other, other, other)
}
