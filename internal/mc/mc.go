// Package mc is the Monte-Carlo replication runner: N workload seeds ×
// M network configurations, fanned across a worker pool and aggregated
// into per-configuration distribution summaries (mean, percentiles,
// 95% confidence intervals).
//
// Replications are embarrassingly parallel and strictly deterministic:
// replication r of point p simulates a workload generated from
// grid.PointSeed(BaseSeed, p*Seeds+r), every replication is a pure
// function of that seed, and results are merged in replication-index
// order — so the output is byte-identical for any worker count.
//
// Every replication simulates on the event engine (package eventsim);
// Config.Check re-runs each one on the cycle-accurate oracle (package
// sim) and fails the study on any difference.
package mc

import (
	"errors"
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/grid"
	"repro/internal/hist"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// EngineEvent names the event engine, which every replication runs
// on.
//
// Deprecated: Config.Engine accepts it only so that callers which set
// it keep working; leave Config.Engine unset.
const EngineEvent = "event"

// PointConfig is one network configuration of the study: a topology
// and traffic shape plus the simulator knobs. The zero values of
// Cycles and Buffer default to the §5 study's 30000 and 2. A zero
// Warmup means no warm-up: the §5 study's 200 must be set explicitly,
// as rtwmc's -warmup default does.
type PointConfig struct {
	Name     string          `json:"name"`
	Topology string          `json:"topology"` // topology.Parse name
	Streams  int             `json:"streams"`
	PLevels  int             `json:"plevels"`
	Arbiter  sim.ArbiterKind `json:"-"`
	Buffer   int             `json:"buffer"`
	Cycles   int             `json:"cycles"`
	Warmup   int             `json:"warmup"`
}

func (p PointConfig) withDefaults() PointConfig {
	if p.Topology == "" {
		p.Topology = "mesh2d-10x10"
	}
	if p.Streams == 0 {
		p.Streams = 20
	}
	if p.PLevels == 0 {
		p.PLevels = 4
	}
	if p.Buffer == 0 {
		p.Buffer = 2
	}
	if p.Cycles == 0 {
		p.Cycles = 30000
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("%s/%s/b%d", p.Topology, p.Arbiter, p.Buffer)
	}
	return p
}

// Config parameterises a study.
type Config struct {
	// Seeds is the number of replications per point (>= 1).
	Seeds int
	// BaseSeed feeds grid.PointSeed; studies with the same base seed
	// simulate identical workloads.
	BaseSeed int64
	// Engine must be "" or EngineEvent: every replication simulates
	// on the event engine (package eventsim).
	//
	// Deprecated: leave it unset.
	Engine string
	// Workers caps the worker pool; 0 means GOMAXPROCS. The worker
	// count never changes results, only wall-clock time.
	Workers int
	// Check re-runs every replication on the cycle-accurate oracle
	// (package sim) and fails the run on any stat mismatch.
	Check bool
	// Points are the configurations under study.
	Points []PointConfig
}

// Replication is the outcome of one simulated workload.
type Replication struct {
	Point        int     `json:"point"`
	Seed         int     `json:"seed"` // replication index within the point
	WorkloadSeed int64   `json:"workloadSeed"`
	Generated    int     `json:"generated"`
	Delivered    int     `json:"delivered"`
	Observed     int     `json:"observed"` // deliveries inside the stats window
	Misses       int     `json:"misses"`
	Unfinished   int     `json:"unfinished"`
	MissRatio    float64 `json:"missRatio"`   // misses / observed
	MeanLatency  float64 `json:"meanLatency"` // over observed deliveries
	P95Latency   int     `json:"p95Latency"`
	MaxLatency   int     `json:"maxLatency"`
}

// PointSummary aggregates one point's replications.
type PointSummary struct {
	PointConfig
	ArbiterName string `json:"arbiter"`
	Reps        int    `json:"reps"`
	MissRatio   Dist   `json:"missRatio"`
	MeanLatency Dist   `json:"meanLatency"`
	P95Latency  Dist   `json:"p95Latency"`
	MaxLatency  Dist   `json:"maxLatency"`
}

// Result is the study outcome: every replication in deterministic
// order plus the per-point summaries.
type Result struct {
	Seeds        int            `json:"seeds"`
	BaseSeed     int64          `json:"baseSeed"`
	Points       []PointSummary `json:"points"`
	Replications []Replication  `json:"replications"`
}

func (c Config) validate() error {
	if c.Seeds < 1 {
		return fmt.Errorf("mc: seeds %d must be >= 1", c.Seeds)
	}
	if len(c.Points) == 0 {
		return fmt.Errorf("mc: no points")
	}
	if c.Workers < 0 {
		return fmt.Errorf("mc: workers %d must be >= 0", c.Workers)
	}
	if c.Engine != "" && c.Engine != EngineEvent {
		return fmt.Errorf("mc: unknown engine %q (every replication runs on the event engine)", c.Engine)
	}
	return nil
}

// Run executes the study. The returned result is a pure function of
// the configuration (never of worker scheduling). If any replication
// fails, Run returns no result and one error naming every failing
// point (see failures).
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	points := make([]PointConfig, len(cfg.Points))
	for i, p := range cfg.Points {
		points[i] = p.withDefaults()
	}
	// Replication i lands at index i, so the result and any error are
	// identical for every worker count and schedule.
	reps, errs := grid.Map(len(points)*cfg.Seeds, cfg.Workers, func(i int) (Replication, error) {
		pi, si := i/cfg.Seeds, i%cfg.Seeds
		return runReplication(points[pi], pi, si, grid.PointSeed(cfg.BaseSeed, i), cfg.Check)
	})
	if err := failures(points, cfg.Seeds, errs); err != nil {
		return nil, err
	}

	res := &Result{Seeds: cfg.Seeds, BaseSeed: cfg.BaseSeed, Replications: reps}
	for pi, p := range points {
		res.Points = append(res.Points, summarize(p, reps[pi*cfg.Seeds:(pi+1)*cfg.Seeds]))
	}
	return res, nil
}

// failures reports every point with a failed replication, in point
// order: how many of its replications failed, and the first of them
// (in replication order) wrapped with %w. It returns nil when errs,
// indexed by replication, holds no error.
func failures(points []PointConfig, seeds int, errs []error) error {
	var bad []error
	failed := 0
	for pi, p := range points {
		var first error
		firstSeed, n := 0, 0
		for si, err := range errs[pi*seeds : (pi+1)*seeds] {
			if err == nil {
				continue
			}
			if n == 0 {
				first, firstSeed = err, si
			}
			n++
		}
		if n > 0 {
			failed += n
			bad = append(bad, fmt.Errorf("point %d (%s): %d of %d replications failed; first, seed %d: %w",
				pi, p.Name, n, seeds, firstSeed, first))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("mc: %d of %d replications failed, in %d of %d points:\n%w",
		failed, len(errs), len(bad), len(points), errors.Join(bad...))
}

// runReplication simulates one generated workload on the event engine
// and extracts the replication's scalar metrics.
func runReplication(p PointConfig, pi, si int, wseed int64, check bool) (Replication, error) {
	rep := Replication{Point: pi, Seed: si, WorkloadSeed: wseed}
	topo, err := topology.Parse(p.Topology)
	if err != nil {
		return rep, err
	}
	wcfg := workload.PaperDefaults(p.Streams, p.PLevels, wseed)
	set, _, err := workload.GenerateOn(topo, wcfg)
	if err != nil {
		return rep, err
	}
	scfg := sim.Config{
		Cycles: p.Cycles, Warmup: p.Warmup,
		Arbiter: p.Arbiter, BufferDepth: p.Buffer,
	}
	s, err := eventsim.New(set, scfg)
	if err != nil {
		return rep, err
	}
	r := s.Run()
	if check {
		if err := crossCheck(set, scfg, r); err != nil {
			return rep, err
		}
	}

	var lat hist.H
	var sumLat int64
	for i := range r.PerStream {
		st := &r.PerStream[i]
		rep.Generated += st.Generated
		rep.Delivered += st.Delivered
		rep.Observed += st.Observed
		rep.Misses += st.Misses
		rep.Unfinished += st.Unfinished
		sumLat += st.SumLatency
		lat.Merge(&st.Latencies)
		if st.Observed > 0 && st.MaxLatency > rep.MaxLatency {
			rep.MaxLatency = st.MaxLatency
		}
	}
	if rep.Observed > 0 {
		rep.MissRatio = float64(rep.Misses) / float64(rep.Observed)
		rep.MeanLatency = float64(sumLat) / float64(rep.Observed)
		rep.P95Latency = lat.Quantile(0.95)
	}
	return rep, nil
}
