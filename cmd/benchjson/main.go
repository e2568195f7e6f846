// Command benchjson converts `go test -bench` text output into a
// stable JSON document, so benchmark results can be committed,
// diffed and consumed by scripts without re-parsing the bench text
// format everywhere.
//
//	go test -run '^$' -bench 'Table|CalU' -count=5 -benchmem . | go run ./cmd/benchjson -o BENCH_core.json
//
// The parser understands the standard benchmark line —
//
//	BenchmarkTable1-8    1    118800000 ns/op    1234 B/op    89256 allocs/op
//
// — including any custom metrics reported with b.ReportMetric (the
// table benchmarks attach top-ratio and bottom-ratio). Context lines
// (goos/goarch/pkg/cpu) are carried into the enclosing document and,
// for pkg, onto each benchmark. Non-benchmark lines (PASS, ok, logs)
// are ignored. The lines of one benchmark (same pkg and name, one per
// -count run) fold into one entry holding the per-metric median, min
// and max. Exit status is 1 if no benchmark line was found, so a
// silently empty run fails loudly in CI.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark folded over its result lines.
type Benchmark struct {
	// Name is the benchmark name without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix (0 if none was printed).
	Procs int `json:"procs,omitempty"`
	// Runs is the number of result lines folded into the entry.
	Runs int `json:"runs"`
	// Iterations is b.N summed over the runs.
	Iterations int `json:"iterations"`
	// Metrics maps unit → the median over the runs: ns/op, B/op,
	// allocs/op, plus any custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
	// Min and Max map unit → the smallest and largest value of a run.
	Min map[string]float64 `json:"min"`
	Max map[string]float64 `json:"max"`
}

// result is one parsed benchmark result line.
type result struct {
	name       string
	procs      int
	iterations int
	metrics    map[string]float64
}

// Document is the emitted JSON root.
type Document struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	pkg := ""
	type key struct{ pkg, name string }
	index := map[key]int{}
	var runs [][]result // runs[i] are the lines of doc.Benchmarks[i]
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			i, seen := index[key{pkg, res.name}]
			if !seen {
				i = len(doc.Benchmarks)
				index[key{pkg, res.name}] = i
				doc.Benchmarks = append(doc.Benchmarks, Benchmark{Name: res.name, Pkg: pkg, Procs: res.procs})
				runs = append(runs, nil)
			}
			runs[i] = append(runs[i], res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines in input")
	}
	for i := range doc.Benchmarks {
		fold(&doc.Benchmarks[i], runs[i])
	}
	return doc, nil
}

// fold fills b's run count, total iterations, and the median, min and
// max of every metric over runs. The median of an even count is the
// mean of the middle two.
func fold(b *Benchmark, runs []result) {
	vals := map[string][]float64{}
	for _, r := range runs {
		b.Iterations += r.iterations
		for unit, v := range r.metrics {
			vals[unit] = append(vals[unit], v)
		}
	}
	b.Runs = len(runs)
	b.Metrics, b.Min, b.Max = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for unit, vs := range vals {
		sort.Float64s(vs)
		n := len(vs)
		b.Metrics[unit] = (vs[(n-1)/2] + vs[n/2]) / 2
		b.Min[unit], b.Max[unit] = vs[0], vs[n-1]
	}
}

// parseBenchLine parses one "BenchmarkX-P  N  v unit  v unit ..."
// line. It returns ok=false for lines that merely start with the word
// Benchmark (such as a benchmark's own log output).
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	// Name, iterations, and at least one value-unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, false
	}
	r := result{name: fields[0], metrics: map[string]float64{}}
	if i := strings.LastIndexByte(r.name, '-'); i > 0 {
		if p, err := strconv.Atoi(r.name[i+1:]); err == nil {
			r.name, r.procs = r.name[:i], p
		}
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return result{}, false
	}
	r.iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.metrics[fields[i+1]] = v
	}
	return r, true
}
