package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// studyScale sizes the two study workloads.
type studyScale struct {
	tables   []int // paper tables per pass (paper-tables)
	cycles   int   // simulated flit times per trial or replication
	seeds    int   // replications per point (mc-campaign)
	coldRuns int   // cold-start passes timed for setup_s
}

func tablesScale(tiny bool) studyScale {
	if tiny {
		return studyScale{tables: []int{1, 3}, cycles: 1500, coldRuns: 1}
	}
	return studyScale{tables: []int{1, 2, 3, 4, 5}, cycles: 30000, coldRuns: 3}
}

// tableSpecs are Tables 1-5 at the paper spec (3 trials each). The
// 60-stream tables keep the paper's own seeds (exp.PaperTable): their
// trials cost 0.4-1.4 s depending on the draw and set the pass time, so
// seed-drawn ones made trials/s swing from 7.4 to 11.0 over five seeds.
// The 20-stream tables, a small share of the pass, draw their seeds
// from the benchmark seed.
func tableSpecs(seed int64, sc studyScale) []exp.TableSpec {
	var specs []exp.TableSpec
	for _, n := range sc.tables {
		s, err := exp.PaperTable(n)
		if err != nil {
			panic(err) // Tables 1-5 always exist
		}
		if s.Streams < 60 {
			s.Seed = grid.PointSeed(seed, n)
		}
		s.Cycles = sc.cycles
		specs = append(specs, s)
	}
	return specs
}

func trialsPerPass(specs []exp.TableSpec) int {
	n := 0
	for _, s := range specs {
		n += s.Trials
	}
	return n
}

// tablePass runs every table once through exp.RunTable.
func tablePass(specs []exp.TableSpec) ([]*exp.TableResult, time.Duration, error) {
	t0 := time.Now()
	out := make([]*exp.TableResult, len(specs))
	for i, s := range specs {
		res, err := exp.RunTable(s)
		if err != nil {
			return nil, 0, err
		}
		out[i] = res
	}
	return out, time.Since(t0), nil
}

// studyPasses runs pass() until dur has elapsed (at least once) and
// returns the pass wall times.
func studyPasses(dur time.Duration, pass func() (time.Duration, error)) ([]float64, time.Duration, error) {
	var times []float64
	var total time.Duration
	for total < dur || len(times) == 0 {
		d, err := pass()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, ms(d))
		total += d
	}
	return times, total, nil
}

// coldSetup times sc.coldRuns cold-start passes; setup_s is their median.
func coldSetup(cfg config, runs int) (float64, error) {
	var xs []float64
	for i := 0; i < runs; i++ {
		d, err := cfg.cold(cfg.workload, cfg.seed)
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

// studyE2E fills the end-to-end metrics of a study from its timed passes.
func studyE2E(cfg config, o *outcome, rateName, opName string, opsPerPass int, times []float64, total time.Duration, alloc uint64, setup float64) {
	ops := opsPerPass * len(times)
	o.e2e["ops_per_s"] = float64(ops) / total.Seconds()
	o.e2e["latency_p50_ms"] = quantile(times, 0.5)
	o.e2e["latency_p99_ms"] = quantile(times, 0.99)
	o.e2e["setup_s"] = setup
	o.e2e["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(ops)
	n := fmt.Sprintf("%d passes of %d %s", len(times), opsPerPass, opName)
	report(cfg.out, rateName, o.e2e["ops_per_s"], opName+"/s", n)
	report(cfg.out, "pass_p50_ms", o.e2e["latency_p50_ms"], "ms", n)
	report(cfg.out, "pass_p99_ms", o.e2e["latency_p99_ms"], "ms", n+"; nearest rank")
	report(cfg.out, "setup_s", setup, "s", "median cold-start first pass")
	report(cfg.out, "alloc_kb_per_op", o.e2e["alloc_kb_per_op"], "KiB", "per "+strings.TrimSuffix(opName, "s"))
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// runPaperTables is the paper-tables workload: the §5 study through
// exp.RunTable, every pass on the same seeds, every pass checked
// against the first.
func runPaperTables(cfg config) (*outcome, error) {
	sc := tablesScale(cfg.tiny)
	specs := tableSpecs(cfg.seed, sc)
	setup, err := coldSetup(cfg, sc.coldRuns)
	if err != nil {
		return nil, err
	}
	ref, _, err := tablePass(specs) // warm-up and reference pass, untimed
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	perPass := trialsPerPass(specs)
	dur := cfg.dur
	if cfg.trace {
		dur /= 2
	}
	a0 := totalAlloc()
	times, total, err := studyPasses(dur, func() (time.Duration, error) {
		got, d, err := tablePass(specs)
		if err != nil {
			return 0, err
		}
		o.attempted += perPass
		if bad, err := checkTables(ref, got); bad > 0 {
			o.fail(bad, "%v", err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	studyE2E(cfg, o, "table_trials_per_s", "trials", perPass, times, total, totalAlloc()-a0, setup)
	if cfg.trace {
		if err := traceTables(cfg, specs, ref, float64(perPass*len(times))/total.Seconds(), o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// trialCounts are the exact counts one replayed trial produces.
type trialCounts struct {
	bounds, unbounded                  int
	delivered, misses, arb, vc, buffer int
}

func (c *trialCounts) add(d trialCounts) {
	c.bounds += d.bounds
	c.unbounded += d.unbounded
	c.delivered += d.delivered
	c.misses += d.misses
	c.arb += d.arb
	c.vc += d.vc
	c.buffer += d.buffer
}

func simCounts(res *sim.Result) trialCounts {
	var c trialCounts
	for _, st := range res.PerStream {
		c.delivered += st.Delivered
		c.misses += st.Misses
		c.arb += st.ArbStallCycles
		c.vc += st.VCStallCycles
		c.buffer += st.BufferStallCycles
	}
	return c
}

// replayTrial repeats one RunTable trial through the layers it calls —
// workload generation, Cal_U over every stream, the cycle simulator —
// each under its own span.
func replayTrial(spec exp.TableSpec, seed int64, tr *tracer, parent *span, op int) (*metrics.RatioTable, trialCounts, error) {
	var c trialCounts
	s := tr.start("workload.generate", parent, op)
	set, analyzer, err := workload.GeneratePattern(workload.PaperDefaults(spec.Streams, spec.PLevels, seed), spec.Pattern)
	s.end()
	if err != nil {
		return nil, c, err
	}
	s = tr.start("core.calu", parent, op)
	us := make([]int, set.Len())
	calc := analyzer.NewCalc()
	for _, st := range set.Streams {
		if us[st.ID], err = calc.CalUSearchCap(st.ID, 1<<16); err != nil {
			s.end()
			return nil, c, err
		}
		if us[st.ID] < 0 {
			c.unbounded++
		}
	}
	s.end()
	c.bounds = set.Len()
	s = tr.start("sim.run", parent, op)
	simulator, err := sim.New(set, sim.Config{Cycles: spec.Cycles, Warmup: spec.Warmup, Arbiter: spec.Arbiter})
	if err != nil {
		s.end()
		return nil, c, err
	}
	res := simulator.Run()
	s.end()
	sc := simCounts(res)
	sc.bounds, sc.unbounded = c.bounds, c.unbounded
	table, err := metrics.Build(spec.Name, set, us, res)
	return table, sc, err
}

// replayTablePass replays one pass: per table, its trials concurrently
// as RunTable runs them. Trial seeds follow RunTable's rule; the
// returned mismatches check it, naming every replayed ratio table that
// differs from the reference pass's.
func replayTablePass(specs []exp.TableSpec, ref []*exp.TableResult, tr *tracer, op *int) (trialCounts, []string, error) {
	var total trialCounts
	var mismatches []string
	for t, spec := range specs {
		root := tr.start("exp.table", nil, *op)
		tables := make([]*metrics.RatioTable, spec.Trials)
		counts := make([]trialCounts, spec.Trials)
		errs := make([]error, spec.Trials)
		var wg sync.WaitGroup
		for i := 0; i < spec.Trials; i++ {
			wg.Add(1)
			go func(i, op int) {
				defer wg.Done()
				s := tr.start("exp.trial", root, op)
				tables[i], counts[i], errs[i] = replayTrial(spec, spec.Seed+int64(i)*7919, tr, s, op)
				s.end()
			}(i, *op+i)
		}
		wg.Wait()
		root.end()
		*op += spec.Trials
		for i := range tables {
			if errs[i] != nil {
				return total, mismatches, errs[i]
			}
			total.add(counts[i])
			if !reflect.DeepEqual(tables[i], ref[t].Trials[i]) {
				mismatches = append(mismatches, fmt.Sprintf("replayed %s trial %d differs from exp.RunTable's", spec.Name, i))
			}
		}
	}
	return total, mismatches, nil
}

// traceTables is the traced half of paper-tables: replay passes for
// the other half of the run, every pass's counts checked against the
// first replay pass.
func traceTables(cfg config, specs []exp.TableSpec, ref []*exp.TableResult, untracedRate float64, o *outcome) error {
	tr := newTracer(true)
	op := 0
	var first trialCounts
	perPass := trialsPerPass(specs)
	times, total, err := studyPasses(cfg.dur/2, func() (time.Duration, error) {
		t0 := time.Now()
		c, mismatches, err := replayTablePass(specs, ref, tr, &op)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		o.attempted += perPass
		if len(mismatches) > 0 {
			o.fail(len(mismatches), "trace replay: %s", mismatches[0])
		}
		if first == (trialCounts{}) {
			first = c
		} else if c != first {
			o.fail(1, "trace replay: sim counts %+v differ from the first replay pass %+v", c, first)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	o.spans = tr.finish()
	by := selfMS(o.spans)
	l := o.layer
	trials := float64(perPass * len(times))
	l["core.calu_ms"] = mean(by["core.calu"])
	l["core.bounds"] = float64(first.bounds)
	l["core.unbounded"] = float64(first.unbounded)
	l["workload.generate_ms"] = mean(by["workload.generate"])
	l["sim.run_ms"] = mean(by["sim.run"])
	l["sim.cycles_per_s"] = float64(specs[0].Cycles) * trials / (sum(by["sim.run"]) / 1e3)
	l["sim.delivered"] = float64(first.delivered)
	l["sim.misses"] = float64(first.misses)
	l["sim.arb_stall_cycles"] = float64(first.arb)
	l["sim.vc_stall_cycles"] = float64(first.vc)
	l["sim.buffer_stall_cycles"] = float64(first.buffer)
	var trialIvs, tableIvs [][2]int64
	for _, s := range o.spans {
		switch s.Name {
		case "exp.trial":
			trialIvs = append(trialIvs, [2]int64{s.Start, s.End})
		case "exp.table":
			tableIvs = append(tableIvs, [2]int64{s.Start, s.End})
		}
	}
	l["exp.trial_util"] = busyShare(trialIvs, runtime.GOMAXPROCS(0), tableIvs)
	l["harness.trace_overhead"] = untracedRate/(trials/total.Seconds()) - 1
	reportLayers(cfg.out, l)
	return nil
}

// busyShare is the share of workers × wall that the intervals kept a
// worker busy, where wall is the summed length of the (disjoint) window
// intervals. At most workers intervals count at any instant: the rest
// are runnable but waiting for a core.
func busyShare(ivs [][2]int64, workers int, windows [][2]int64) float64 {
	type edge struct {
		t int64
		d int
	}
	var edges []edge
	for _, iv := range ivs {
		edges = append(edges, edge{iv[0], 1}, edge{iv[1], -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	var busy, wall int64
	active := 0
	for i, e := range edges {
		if i > 0 {
			busy += int64(min(active, workers)) * (e.t - edges[i-1].t)
		}
		active += e.d
	}
	for _, w := range windows {
		wall += w[1] - w[0]
	}
	if wall == 0 {
		return 0
	}
	return float64(busy) / float64(int64(workers)*wall)
}
