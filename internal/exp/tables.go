// Package exp regenerates every table and figure of the paper's
// evaluation (§5) plus the worked examples of §4, wiring together the
// workload generator, the delay-bound analyzer (package core), the
// flit-level simulator and the metrics aggregation. Every simulation
// runs on the event engine (package eventsim), which returns the same
// sim.Result as the cycle-accurate oracle in package sim, stat for
// stat, in a fraction of the time. The command-line tools (cmd/tables,
// cmd/figures) and the benchmark harness (bench_test.go) are thin
// wrappers around this package.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TableSpec describes one experiment of the paper's table family:
// random periodic streams on a 10×10 mesh, analysed and then simulated
// under flit-level preemption.
type TableSpec struct {
	Name    string
	Streams int
	PLevels int
	Seed    int64
	Trials  int // independent seeds averaged together (paper: 1 run)
	Cycles  int // simulated flit times (paper: 30000)
	Warmup  int // start-up flit times omitted (paper: 200)
	Arbiter sim.ArbiterKind
	// Pattern selects the destination distribution (default: the
	// paper's spatial uniform distribution).
	Pattern workload.Pattern
}

// PaperTable returns the specification of Tables 1-5.
//
//	Table 1: 1 priority level, 20 streams
//	Table 2: 1 priority level, 60 streams
//	Table 3: 4 priority levels, 20 streams
//	Table 4: 5 priority levels, 20 streams
//	Table 5: 15 priority levels, 60 streams
func PaperTable(n int) (TableSpec, error) {
	specs := map[int]TableSpec{
		1: {Name: "Table 1: 1 priority level, 20 message streams", Streams: 20, PLevels: 1},
		2: {Name: "Table 2: 1 priority level, 60 message streams", Streams: 60, PLevels: 1},
		3: {Name: "Table 3: 4 priority levels, 20 message streams", Streams: 20, PLevels: 4},
		4: {Name: "Table 4: 5 priority levels, 20 message streams", Streams: 20, PLevels: 5},
		5: {Name: "Table 5: 15 priority levels, 60 message streams", Streams: 60, PLevels: 15},
	}
	s, ok := specs[n]
	if !ok {
		return TableSpec{}, fmt.Errorf("exp: no paper table %d", n)
	}
	s.Seed = int64(1000 + n)
	s.Trials = 3
	s.Cycles = 30000
	s.Warmup = 200
	s.Arbiter = sim.Preemptive
	return s, nil
}

func (t TableSpec) withDefaults() TableSpec {
	if t.Trials == 0 {
		t.Trials = 1
	}
	if t.Cycles == 0 {
		t.Cycles = 30000
	}
	if t.Warmup == 0 {
		t.Warmup = 200
	}
	return t
}

// TableResult is the averaged outcome of a table experiment.
type TableResult struct {
	Spec   TableSpec
	Trials []*metrics.RatioTable
	// Rows averages the per-trial level rows (matched by priority).
	Rows []metrics.LevelRow
}

// RunTable generates the workload, computes every stream's delay upper
// bound, simulates the network, and aggregates the ratio table —
// averaged over the spec's trials. Trials are independent (one seed
// each) and run concurrently.
func RunTable(spec TableSpec) (*TableResult, error) {
	spec = spec.withDefaults()
	out := &TableResult{Spec: spec}
	acc := map[int]*metrics.LevelRow{}
	counts := map[int]int{}

	type trialOut struct {
		table *metrics.RatioTable
		err   error
	}
	results := make([]trialOut, spec.Trials)
	var wg sync.WaitGroup
	for trial := 0; trial < spec.Trials; trial++ {
		trial := trial
		wg.Add(1)
		go func() {
			defer wg.Done()
			table, err := runTrial(spec, spec.Seed+int64(trial)*7919)
			// Each trial writes only its own slot; wg.Wait orders the reads.
			results[trial] = trialOut{table, err}
		}()
	}
	wg.Wait()
	for trial, res := range results {
		if res.err != nil {
			return nil, fmt.Errorf("exp: trial %d: %w", trial, res.err)
		}
		table := res.table
		out.Trials = append(out.Trials, table)
		for _, row := range table.Rows {
			a, ok := acc[row.Priority]
			if !ok {
				a = &metrics.LevelRow{Priority: row.Priority}
				acc[row.Priority] = a
			}
			a.Streams += row.Streams
			a.Observed += row.Observed
			a.MeanRatio += row.MeanRatio
			a.MaxRatio += row.MaxRatio
			a.Exceeded += row.Exceeded
			if row.Worst > a.Worst {
				a.Worst = row.Worst
			}
			counts[row.Priority]++
		}
	}
	for p := spec.PLevels; p >= 1; p-- {
		a, ok := acc[p]
		if !ok {
			continue
		}
		n := float64(counts[p])
		a.MeanRatio /= n
		a.MaxRatio /= n
		out.Rows = append(out.Rows, *a)
	}
	return out, nil
}

func runTrial(spec TableSpec, seed int64) (*metrics.RatioTable, error) {
	cfg := workload.PaperDefaults(spec.Streams, spec.PLevels, seed)
	cfg.InflatePeriods = false
	set, analyzer, err := workload.GeneratePattern(cfg, spec.Pattern)
	if err != nil {
		return nil, err
	}
	us, err := workload.Inflate(set, analyzer, 1<<16)
	if err != nil {
		return nil, err
	}
	simulator, err := eventsim.New(set, sim.Config{
		Cycles:  spec.Cycles,
		Warmup:  spec.Warmup,
		Arbiter: spec.Arbiter,
	})
	if err != nil {
		return nil, err
	}
	res := simulator.Run()
	return metrics.Build(spec.Name, set, us, res)
}

// Format renders the averaged table in the paper's style.
func (r *TableResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (avg of %d trials, %d flit times, %s)\n",
		r.Spec.Name, r.Spec.Trials, r.Spec.Cycles, r.Spec.Arbiter)
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %10s\n", "priority", "streams", "mean/U", "max/U", "exceeded")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "P = %-6d %8d %12.3f %12.3f %10d\n",
			row.Priority, row.Streams, row.MeanRatio, row.MaxRatio, row.Exceeded)
	}
	return b.String()
}

// TopRatio returns the mean ratio of the highest priority level.
func (r *TableResult) TopRatio() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].MeanRatio
}

// BottomRatio returns the mean ratio of the lowest priority level.
func (r *TableResult) BottomRatio() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[len(r.Rows)-1].MeanRatio
}

// RuleSweepResult records, for one stream count, the smallest number of
// priority levels whose top-level mean ratio exceeds the target — the
// paper's "at least |M|/4 priority levels are needed for ratio > 0.9"
// observation.
type RuleSweepResult struct {
	Streams   int
	Target    float64
	MinLevels int // -1 if not reached within MaxLevels
	MaxLevels int
	Ratios    []float64 // top-level ratio per level count, index 0 = 1 level
}

// RunRuleSweep sweeps the number of priority levels for a fixed stream
// count until the top-priority mean ratio exceeds target.
func RunRuleSweep(streams int, target float64, maxLevels int, seed int64, cycles int) (*RuleSweepResult, error) {
	out := &RuleSweepResult{Streams: streams, Target: target, MinLevels: -1, MaxLevels: maxLevels}
	for lv := 1; lv <= maxLevels; lv++ {
		res, err := RunTable(TableSpec{
			Name:    fmt.Sprintf("sweep %d streams, %d levels", streams, lv),
			Streams: streams, PLevels: lv,
			Seed: seed, Trials: 3, Cycles: cycles, Warmup: 200,
		})
		if err != nil {
			return nil, err
		}
		out.Ratios = append(out.Ratios, res.TopRatio())
		if out.MinLevels < 0 && res.TopRatio() > target {
			out.MinLevels = lv
		}
	}
	return out, nil
}

// Format renders the sweep result.
func (r *RuleSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "|M| = %d streams, target top-level ratio > %.2f\n", r.Streams, r.Target)
	for i, ratio := range r.Ratios {
		marker := " "
		if i+1 == r.MinLevels {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s %2d levels: top ratio %.3f\n", marker, i+1, ratio)
	}
	if r.MinLevels > 0 {
		fmt.Fprintf(&b, "minimum levels for target: %d (|M|/4 = %.1f)\n", r.MinLevels, float64(r.Streams)/4)
	} else {
		fmt.Fprintf(&b, "target not reached within %d levels\n", r.MaxLevels)
	}
	return b.String()
}
