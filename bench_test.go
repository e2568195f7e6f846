package repro

import (
	"fmt"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/exp"
	"repro/internal/explore"
	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/mc"
	"repro/internal/place"
	"repro/internal/routing"
	"repro/internal/sched"
	"repro/internal/shiburns"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ----- Tables 1-5 (paper §5) ------------------------------------------
//
// Each benchmark regenerates one evaluation table: generate the random
// workload, compute every delay upper bound, simulate 30000 flit times
// under flit-level preemption, and aggregate the per-priority-level
// ratio between actual latency and bound. The headline ratios are
// attached as custom metrics (top/U and bottom/U).

func benchTable(b *testing.B, n int) {
	spec, err := exp.PaperTable(n)
	if err != nil {
		b.Fatal(err)
	}
	// One trial on the table's fixed paper seed: every iteration runs the
	// same workload, so -count and -benchtime above 1x compare like with
	// like.
	spec.Trials = 1
	var res *exp.TableResult
	for i := 0; i < b.N; i++ {
		if res, err = exp.RunTable(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TopRatio(), "top-ratio")
	b.ReportMetric(res.BottomRatio(), "bottom-ratio")
	if b.N == 1 {
		b.Log("\n" + res.Format())
	}
}

func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }
func BenchmarkTable5(b *testing.B) { benchTable(b, 5) }

// BenchmarkPriorityLevelRule reproduces the paper's closing observation
// of §5: at least |M|/4 priority levels are needed before the
// highest-priority ratio exceeds 0.9 (run at a reduced size so that one
// iteration stays affordable; cmd/tables -rule runs the full sweep).
func BenchmarkPriorityLevelRule(b *testing.B) {
	var res *exp.RuleSweepResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = exp.RunRuleSweep(20, 0.9, 8, 42, 15000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MinLevels), "min-levels")
	if b.N == 1 {
		b.Log("\n" + res.Format())
	}
}

// ----- Figures ---------------------------------------------------------

// BenchmarkFigure2PriorityInversion regenerates the Figure 2
// demonstration: the worst high-priority latency without and with
// flit-level preemption.
func BenchmarkFigure2PriorityInversion(b *testing.B) {
	var rep *exp.FigureReport
	var err error
	for i := 0; i < b.N; i++ {
		if rep, err = exp.Figure2(10000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Values["nonpreemptiveMax"]), "nonpreemptive-max")
	b.ReportMetric(float64(rep.Values["preemptiveMax"]), "preemptive-max")
	if b.N == 1 {
		b.Log("\n" + rep.Body)
	}
}

// BenchmarkFigure4 regenerates the direct-blocking U calculation
// (expected U = 26).
func BenchmarkFigure4(b *testing.B) {
	var rep *exp.FigureReport
	var err error
	for i := 0; i < b.N; i++ {
		if rep, err = exp.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Values["U"]), "U")
}

// BenchmarkFigure6 regenerates the indirect-blocking U calculation
// (expected U = 22).
func BenchmarkFigure6(b *testing.B) {
	var rep *exp.FigureReport
	var err error
	for i := 0; i < b.N; i++ {
		if rep, err = exp.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Values["U"]), "U")
}

// BenchmarkWorkedExample regenerates the full §4.4 pipeline (Figures 3,
// 7, 8 and 9): HP sets, BDG, initial and final timing diagrams and all
// five bounds (U = 7, 8, 26, 30, 33).
func BenchmarkWorkedExample(b *testing.B) {
	var rep *exp.FigureReport
	var err error
	for i := 0; i < b.N; i++ {
		if rep, err = exp.WorkedExample(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Values["U4"]), "U4")
	if b.N == 1 {
		b.Log("\n" + rep.Body)
	}
}

// ----- Ablations --------------------------------------------------------

// BenchmarkAblationRMBaseline compares the paper's bound with the naive
// rate-monotonic response-time bound (Mutka-style) that ignores
// indirect blocking, on the same generated workload. The reported
// metric is how many streams the RM analysis bounds more optimistically
// than the paper's algorithm — each one a potential missed deadline.
func BenchmarkAblationRMBaseline(b *testing.B) {
	optimistic := 0
	for i := 0; i < b.N; i++ {
		set, analyzer, err := workload.Generate(workload.PaperDefaults(20, 4, int64(300+i)))
		if err != nil {
			b.Fatal(err)
		}
		optimistic = 0
		for _, s := range set.Streams {
			paper, err := analyzer.CalUSearchCap(s.ID, 1<<16)
			if err != nil {
				b.Fatal(err)
			}
			rm, err := sched.ResponseTimeBound(set, s.ID, 1<<16)
			if err != nil {
				b.Fatal(err)
			}
			if rm >= 0 && (paper < 0 || rm < paper) {
				optimistic++
			}
		}
	}
	b.ReportMetric(float64(optimistic), "rm-optimistic-streams")
}

// BenchmarkArbiters runs the same 20-stream workload under all four
// switching disciplines and reports the worst observed latency of the
// highest-priority level — the cost of giving up preemption.
func BenchmarkArbiters(b *testing.B) {
	set, _, err := workload.Generate(workload.PaperDefaults(20, 4, 4242))
	if err != nil {
		b.Fatal(err)
	}
	topPrio := 0
	for _, s := range set.Streams {
		if s.Priority > topPrio {
			topPrio = s.Priority
		}
	}
	for _, kind := range []sim.ArbiterKind{sim.Preemptive, sim.Li, sim.NonPreemptivePriority, sim.NonPreemptiveFIFO} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			worst := 0
			for i := 0; i < b.N; i++ {
				s, err := sim.New(set, sim.Config{Cycles: 30000, Warmup: 200, Arbiter: kind})
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run()
				worst = 0
				for j, st := range res.PerStream {
					if set.Get(stream.ID(j)).Priority == topPrio && st.MaxLatency > worst {
						worst = st.MaxLatency
					}
				}
			}
			b.ReportMetric(float64(worst), "top-prio-max-latency")
		})
	}
}

// BenchmarkAblationBufferDepth measures the effect of per-VC buffer
// depth on mean latency (depth 1 halves the worm's throughput; depth 2
// sustains the full pipeline — the analysis assumes full throughput).
func BenchmarkAblationBufferDepth(b *testing.B) {
	set, _, err := workload.Generate(workload.PaperDefaults(20, 4, 777))
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(set, sim.Config{Cycles: 20000, Warmup: 200, BufferDepth: depth})
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run()
				sum, n := 0.0, 0
				for _, st := range res.PerStream {
					if st.Observed > 0 {
						sum += st.Mean()
						n++
					}
				}
				mean = sum / float64(n)
			}
			b.ReportMetric(mean, "mean-latency")
		})
	}
}

// BenchmarkAblationStrictArbitration compares the work-conserving
// arbitration (default) against the paper's literal rule in which a VC
// transmits only when every higher-priority VC is unoccupied.
func BenchmarkAblationStrictArbitration(b *testing.B) {
	set, _, err := workload.Generate(workload.PaperDefaults(20, 4, 888))
	if err != nil {
		b.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		strict := strict
		name := "work-conserving"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(set, sim.Config{Cycles: 20000, Warmup: 200, StrictPhysicalPriority: strict})
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run()
				sum, n := 0.0, 0
				for _, st := range res.PerStream {
					if st.Observed > 0 {
						sum += st.Mean()
						n++
					}
				}
				mean = sum / float64(n)
			}
			b.ReportMetric(mean, "mean-latency")
		})
	}
}

// BenchmarkAblationPlacement evaluates the job-allocation extension
// (the problem §2 of the paper defers): random versus greedy+annealed
// placement of three heavy pipelines, scored by the number of streams
// whose delay bound fits the deadline.
func BenchmarkAblationPlacement(b *testing.B) {
	// 12 tasks on 16 nodes: random placements collide often.
	m := topology.NewMesh2D(4, 4)
	r := routing.NewXY(m)
	p := place.Problem{Tasks: 12}
	for _, base := range []int{0, 4, 8} {
		for i := 0; i < 3; i++ {
			p.Demands = append(p.Demands, place.Demand{
				From: place.Task(base + i), To: place.Task(base + i + 1),
				Priority: 1 + base/4, Period: 40, Length: 16, Deadline: 30,
			})
		}
	}
	feasible := func(a place.Assignment) int {
		set, err := p.Build(m, r, a)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.DetermineFeasibility(set)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, v := range rep.Verdicts {
			if v.Feasible {
				n++
			}
		}
		return n
	}
	var randOK float64
	var placedOK int
	for i := 0; i < b.N; i++ {
		sum := 0
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			ra, err := place.Random(p, m, int64(i)*seeds+s)
			if err != nil {
				b.Fatal(err)
			}
			sum += feasible(ra)
		}
		randOK = float64(sum) / seeds
		g, err := place.Greedy(p, m, r)
		if err != nil {
			b.Fatal(err)
		}
		refined, err := place.Anneal(p, m, r, g, place.AnnealConfig{Seed: int64(i), Iterations: 2000})
		if err != nil {
			b.Fatal(err)
		}
		placedOK = feasible(refined)
	}
	b.ReportMetric(randOK, "random-feasible-streams")
	b.ReportMetric(float64(placedOK), "placed-feasible-streams")
}

// BenchmarkAblationShiBurns compares the paper's diagram bound against
// the Shi-Burns (NOCS 2008) jitter-augmented response-time analysis on
// distinct-priority workloads. Each iteration aggregates the SAME ten
// fixed seeds, so the reported mean bounds (lower = tighter) are
// stable regardless of b.N. Neither analysis dominates; see
// EXPERIMENTS.md.
func BenchmarkAblationShiBurns(b *testing.B) {
	var meanPaper, meanSB float64
	for i := 0; i < b.N; i++ {
		sumP, sumS, n := 0.0, 0.0, 0
		for seed := int64(900); seed < 910; seed++ {
			cfg := workload.PaperDefaults(20, 20, seed)
			cfg.InflatePeriods = false
			set, analyzer, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sb, err := shiburns.Analyze(set, 1<<16)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range set.Streams {
				u, err := analyzer.CalUSearchCap(s.ID, 1<<16)
				if err != nil {
					b.Fatal(err)
				}
				if u < 0 || sb.R[s.ID] < 0 {
					continue
				}
				sumP += float64(u)
				sumS += float64(sb.R[s.ID])
				n++
			}
		}
		if n > 0 {
			meanPaper = sumP / float64(n)
			meanSB = sumS / float64(n)
		}
	}
	b.ReportMetric(meanPaper, "mean-paper-bound")
	b.ReportMetric(meanSB, "mean-shiburns-bound")
}

// BenchmarkLoadSweep produces the latency-vs-load saturation curves for
// the preemptive scheme and classic wormhole switching (mean latency at
// period scales 2.0 / 1.0 / 0.5). Near saturation, the top priority's
// latency stays flat only under flit-level preemption.
func BenchmarkLoadSweep(b *testing.B) {
	scales := []float64{2.0, 1.0, 0.5}
	for _, kind := range []sim.ArbiterKind{sim.Preemptive, sim.NonPreemptivePriority} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var pts []exp.LoadPoint
			var err error
			for i := 0; i < b.N; i++ {
				if pts, err = exp.LoadSweep(20, 4, 99, scales, kind, 20000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[len(pts)-1].MeanLat, "mean-latency-at-0.5x")
			b.ReportMetric(pts[len(pts)-1].TopMeanLat, "top-latency-at-0.5x")
		})
	}
}

// BenchmarkQuantizationSweep measures bound tightness as many logical
// priorities are squeezed onto few virtual channels (the paper's
// "difficult to have too many virtual channels" constraint).
func BenchmarkQuantizationSweep(b *testing.B) {
	var pts []exp.QuantizationPoint
	var err error
	for i := 0; i < b.N; i++ {
		if pts, err = exp.QuantizationSweep(20, []int{1, 2, 4, 8}, 7, 15000); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.TopRatio, fmt.Sprintf("top-ratio-%dvc", p.VCs))
	}
}

// BenchmarkAblationRouterLatency sweeps the per-hop router pipeline
// depth: analysis and simulator grow together (reported as the mean
// bound and mean measured latency at each depth).
func BenchmarkAblationRouterLatency(b *testing.B) {
	var pts []exp.RouterLatencyPoint
	var err error
	for i := 0; i < b.N; i++ {
		if pts, err = exp.RouterLatencySweep(15, 15, 21, []int{0, 1, 3}, 15000); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanU, fmt.Sprintf("mean-U-r%d", p.R))
		b.ReportMetric(p.MeanActual, fmt.Sprintf("mean-actual-r%d", p.R))
	}
}

// ----- Microbenchmarks ---------------------------------------------------

// BenchmarkHPSetConstruction measures Generate_HP over a 60-stream set.
func BenchmarkHPSetConstruction(b *testing.B) {
	cfg := workload.PaperDefaults(60, 15, 123)
	cfg.InflatePeriods = false
	set, _, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BuildHPSets(set)
	}
}

// BenchmarkCalU measures one Cal_U run per fixture: HP_4 of the worked
// example, then five streams of the §5 pools the admission daemon is
// benchmarked on (workload.PaperDefaults(40, 8, pool)), on both sides
// of Cal_U's early exit. In a prefix of pool 5 or 7, the stream whose
// inflated deadline is MaxSearchHorizon has a bound of a few hundred
// slots, which a short horizon certifies. In the full pools it has no
// bound, and pool 7's stream 34 has U = D = 45985; both lay the
// diagram out to the deadline. The reported U pins each fixture.
func BenchmarkCalU(b *testing.B) {
	worked, err := exp.WorkedExampleSet()
	if err != nil {
		b.Fatal(err)
	}
	pool := func(seed int64, streams int) *stream.Set {
		set, _, err := workload.Generate(workload.PaperDefaults(40, 8, seed))
		if err != nil {
			b.Fatal(err)
		}
		set.Streams = set.Streams[:streams]
		return set
	}
	for _, fx := range []struct {
		name string
		set  *stream.Set
		id   stream.ID
		u    int
	}{
		{"worked-example", worked, 4, 33},
		{"pool5-prefix38-stream3", pool(5, 38), 3, 281},
		{"pool7-prefix39-stream25", pool(7, 39), 25, 142},
		{"pool5-stream3-unbounded", pool(5, 40), 3, -1},
		{"pool7-stream25-unbounded", pool(7, 40), 25, -1},
		{"pool7-stream34-U=D", pool(7, 40), 34, 45985},
	} {
		b.Run(fx.name, func(b *testing.B) {
			a, err := core.NewAnalyzer(fx.set)
			if err != nil {
				b.Fatal(err)
			}
			u, err := a.CalU(fx.id)
			if err != nil {
				b.Fatal(err)
			}
			if u != fx.u {
				b.Fatalf("U = %d, want %d", u, fx.u)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CalU(fx.id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(u), "U")
		})
	}
}

// BenchmarkInflate measures the paper's period-inflation rule
// (workload.Inflate at the 65536-slot cap the tables use) on the first
// trial of Table 2 (60 streams, 1 level) and of Table 5 (60 streams,
// 15 levels, the shape of mc-campaign's contended point). Nearly all
// of its time is CalUSearchCap's Modify runs. Inflate raises periods
// in place, so every iteration inflates a freshly generated set, and
// only Inflate is timed. The reported bounded count pins the result.
func BenchmarkInflate(b *testing.B) {
	for _, fx := range []struct {
		name             string
		streams, plevels int
		seed             int64
	}{
		{"table2-seed1002", 60, 1, 1002},
		{"table5-seed1005", 60, 15, 1005},
	} {
		b.Run(fx.name, func(b *testing.B) {
			cfg := workload.PaperDefaults(fx.streams, fx.plevels, fx.seed)
			cfg.InflatePeriods = false
			bounded := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				set, a, err := workload.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				us, err := workload.Inflate(set, a)
				if err != nil {
					b.Fatal(err)
				}
				bounded = 0
				for _, u := range us {
					if u >= 0 {
						bounded++
					}
				}
			}
			b.ReportMetric(float64(bounded), "bounded")
		})
	}
}

// BenchmarkSimulator measures raw simulation throughput: cycles per
// second on the paper's Table 3 workload.
func BenchmarkSimulator(b *testing.B) {
	set, _, err := workload.Generate(workload.PaperDefaults(20, 4, 555))
	if err != nil {
		b.Fatal(err)
	}
	const cycles = 30000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(set, sim.Config{Cycles: cycles, Warmup: 200})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkEventSim is BenchmarkSimulator on the event-driven engine:
// same workload, same horizon, same metric, so the cycles/s ratio
// between the two entries in BENCH_core.json is the engine speedup.
// The differential battery in internal/eventsim pins the two engines'
// results byte-identical on this exact workload. kernel-cycles/op is
// the component-cycles stepped in the cycle kernel rather than folded,
// and kernel-msg-cycles/op the messages those cycles held, summed:
// deterministic, so host noise cannot move them.
func BenchmarkEventSim(b *testing.B) {
	set, _, err := workload.Generate(workload.PaperDefaults(20, 4, 555))
	if err != nil {
		b.Fatal(err)
	}
	const cycles = 30000
	stepped, held := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := eventsim.New(set, sim.Config{Cycles: cycles, Warmup: 200})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		stepped += s.KernelCycles()
		held += s.KernelMessageCycles()
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(stepped)/float64(b.N), "kernel-cycles/op")
	b.ReportMetric(float64(held)/float64(b.N), "kernel-msg-cycles/op")
}

// BenchmarkMCReplications measures Monte-Carlo study throughput: 8
// replications of the §5 pool shape fanned over the worker pool with
// the event engine, reported as replications per second.
func BenchmarkMCReplications(b *testing.B) {
	cfg := mc.Config{
		Seeds:    8,
		BaseSeed: 555,
		Points: []mc.PointConfig{
			{Topology: "mesh2d-10x10", Streams: 20, PLevels: 4, Arbiter: sim.Preemptive, Cycles: 30000, Warmup: 200},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Seeds)*float64(b.N)/b.Elapsed().Seconds(), "replications/s")
}

func benchName(prefix string, v int) string {
	return prefix + "-" + string(rune('0'+v))
}

// ----- Online admission (internal/admit) ---------------------------------
//
// The pair below measures the value of incremental recomputation: a
// clone of one stream is probe-admitted against a standing 50-stream
// paper workload on the 10×10 mesh. The Incremental variant runs the
// controller, which recomputes only the HP-set dependents of the probe;
// the Full variant runs the offline test over the same 51-stream sets
// (a fresh analyzer, every stream's Cal_U from the worker pool, one
// report), which re-derives every bound. The verdicts are the same
// (internal/admit's differential battery pins them); the only
// difference is the dirty set.

// admitBenchSpecs returns the standing workload. Seed 13 yields one
// where every stream stays feasible, so a probe never trips a
// rejection.
func admitBenchSpecs(b *testing.B) (topology.Topology, []admit.Spec) {
	b.Helper()
	set, _, err := workload.Generate(workload.PaperDefaults(50, 15, 13))
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]admit.Spec, set.Len())
	for i, s := range set.Streams {
		specs[i] = admit.Spec{
			Src: s.Src, Dst: s.Dst,
			Priority: s.Priority, Period: s.Period,
			Length: s.Length, Deadline: s.Deadline,
		}
	}
	return set.Topology, specs
}

// BenchmarkAdmitIncremental: one single-stream admit per iteration,
// recomputing only the dirty bounds. recomputed/op is the mean over
// one probe of every stream, taken before the timed loop, so it does
// not depend on how many probes b.N reaches.
func BenchmarkAdmitIncremental(b *testing.B) {
	topo, specs := admitBenchSpecs(b)
	c, err := admit.New(topo, admit.Config{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.AdmitBatch(specs)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Admitted {
		b.Fatalf("benchmark workload infeasible: %s", res.Rejection)
	}
	recomputed := 0
	for _, sp := range specs {
		res, err := c.Admit(sp)
		if err != nil {
			b.Fatal(err)
		}
		recomputed += res.Recomputed
		if res.Admitted {
			if _, err := c.Withdraw(res.Handles[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Probe-admit a clone of stream k against the standing 50. Only
		// the admit is on the clock — the withdraw below merely restores
		// the state for the next iteration (an accepted probe is always
		// the last stream, so removing it recreates the baseline
		// exactly).
		res, err := c.Admit(specs[i%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Admitted {
			b.StopTimer()
			if _, err := c.Withdraw(res.Handles[0]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(recomputed)/float64(len(specs)), "recomputed/op")
}

// BenchmarkAdmitFull: the same probes through the offline test — the
// cost an admission controller would pay without dirty-set
// invalidation.
func BenchmarkAdmitFull(b *testing.B) {
	topo, specs := admitBenchSpecs(b)
	r, err := routing.ForTopology(topo)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([]*stream.Set, len(specs))
	for k := range probes {
		probes[k] = stream.NewSet(topo)
		for _, sp := range append(specs[:len(specs):len(specs)], specs[k]) {
			if _, err := probes[k].Add(r, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
				b.Fatal(err)
			}
		}
	}
	all := make([]stream.ID, len(specs)+1)
	for k := range all {
		all[k] = stream.ID(k)
	}
	recomputed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := probes[i%len(probes)]
		a, err := core.NewAnalyzer(set)
		if err != nil {
			b.Fatal(err)
		}
		us, err := a.CalUBatchParallel(all, 0)
		if err != nil {
			b.Fatal(err)
		}
		recomputed += len(core.NewReport(set, us).Verdicts)
	}
	b.ReportMetric(float64(recomputed)/float64(b.N), "recomputed/op")
}

// ----- Design-space explorer ------------------------------------------

// benchExploreSweep scores a fixed grid (two topologies × three VC
// ladders × two buffer depths) against a 12-stream §5 pool, reporting
// configuration points evaluated per second. The validated variant
// additionally replays every fully-admitting point through the
// flit-level simulator — the cost of turning an analysis verdict into
// a sim-backed one.
func benchExploreSweep(b *testing.B, validate bool) {
	w, err := explore.PaperPool(12, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	sp := explore.Space{
		Topologies: []string{"mesh2d-10x10", "ring-16"},
		Routings:   []string{explore.RoutingCanonical},
		VCs:        []int{1, 2, 4},
		Buffers:    []int{1, 2},
		Policies:   []string{explore.PolicyWorkload},
	}
	var points int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.Sweep(w, sp, explore.SweepConfig{
			Seed: 1, Eval: explore.EvalConfig{Validate: validate, ValidateCycles: 2000},
		})
		if err != nil {
			b.Fatal(err)
		}
		points += len(res.Points)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(points)/sec, "points/s")
	}
}

func BenchmarkExploreSweep(b *testing.B) {
	b.Run("analysis", func(b *testing.B) { benchExploreSweep(b, false) })
	b.Run("validated", func(b *testing.B) { benchExploreSweep(b, true) })
}

// ----- rtwlint ---------------------------------------------------------

// BenchmarkLintRepo times one full rtwlint pass — all three tiers,
// including the value-range analyzers — over every package of the
// module. Loading and type-checking happen once outside the loop; each
// iteration recomputes every package's interval fixpoints from
// scratch, which is what a cold CI run pays.
func BenchmarkLintRepo(b *testing.B) {
	pkgs, err := loader.Load("", "./...")
	if err != nil {
		b.Fatal(err)
	}
	analyzers := lint.Analyzers()
	b.ResetTimer()
	findings := 0
	for i := 0; i < b.N; i++ {
		findings = 0
		for _, pkg := range pkgs {
			diags, err := analysis.Run(pkg, analyzers)
			if err != nil {
				b.Fatal(err)
			}
			findings += len(diags)
		}
	}
	b.ReportMetric(float64(findings), "findings")
	b.ReportMetric(float64(len(pkgs)), "packages")
}
