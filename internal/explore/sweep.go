package explore

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/grid"
)

// placementSalt separates the placement-seed stream from the per-point
// seed stream: placement depends only on (base seed, topology), so
// every point on the same network sees the same stream placement and
// the VC/buffer/policy axes are compared like for like.
const placementSalt = 0x706c6163 // "plac"

// placementSeeds derives one placement seed per topology axis value.
func placementSeeds(sp Space, seed int64) map[string]int64 {
	out := make(map[string]int64, len(sp.Topologies))
	for i, name := range sp.Topologies {
		out[name] = grid.PointSeed(seed^placementSalt, i)
	}
	return out
}

// SweepConfig tunes a full-grid sweep.
type SweepConfig struct {
	// Seed drives all placement randomness. Results are a pure
	// function of (workload, space, seed, cost model, eval config).
	Seed int64
	// Workers is the evaluation pool width; <= 0 uses GOMAXPROCS.
	// Results are byte-identical for every width (pinned by tests).
	Workers int
	// Cost prices each point; the zero value means DefaultCostModel.
	Cost CostModel
	// Eval tunes per-point evaluation.
	Eval EvalConfig
}

// SweepResult is the full scored grid, in grid order, plus the
// headline spread between the best and worst configuration.
type SweepResult struct {
	Workload  string        `json:"workload"`
	Demands   int           `json:"demands"`
	TotalUtil float64       `json:"totalUtil"`
	Seed      int64         `json:"seed"`
	Space     Space         `json:"space"`
	Cost      CostModel     `json:"cost"`
	Points    []PointResult `json:"points"`

	// BestIndex/WorstIndex are grid indexes of the extreme points by
	// (admitted utilization, admitted count, lower index). SpreadPct =
	// 100·(best−worst)/best admitted utilization: the price of picking
	// the wrong configuration.
	BestIndex  int     `json:"bestIndex"`
	WorstIndex int     `json:"worstIndex"`
	SpreadPct  float64 `json:"spreadPct"`
}

// Sweep evaluates every valid point of the space in parallel and
// merges the results in grid order.
func Sweep(w Workload, sp Space, cfg SweepConfig) (*SweepResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	cost := cfg.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if err := cost.validate(); err != nil {
		return nil, err
	}
	points, err := sp.Enumerate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	results, err := evaluateAll(w, sp, points, cost, cfg.Eval, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Workload: w.Name, Demands: len(w.Demands), TotalUtil: w.TotalUtil(),
		Seed: cfg.Seed, Space: sp, Cost: cost, Points: results,
	}
	best, worst := 0, 0
	for i := range results {
		if betterScore(&results[i], &results[best]) {
			best = i
		}
		if betterScore(&results[worst], &results[i]) {
			worst = i
		}
	}
	res.BestIndex = results[best].Index
	res.WorstIndex = results[worst].Index
	if bu := results[best].AdmittedUtil; bu > 0 {
		res.SpreadPct = math.Round((bu-results[worst].AdmittedUtil)/bu*100*1e3) / 1e3
	}
	return res, nil
}

// betterScore orders points by admitted utilization, then admitted
// count, then lower grid index.
func betterScore(a, b *PointResult) bool {
	if a.AdmittedUtil > b.AdmittedUtil {
		return true
	}
	if a.AdmittedUtil < b.AdmittedUtil {
		return false
	}
	if a.Admitted != b.Admitted {
		return a.Admitted > b.Admitted
	}
	return a.Index < b.Index
}

// evaluateAll scores points[0..n) from a pool of workers and merges
// the results by position. On failure the error of the smallest
// failing position is returned, so the outcome is identical for every
// worker count and schedule.
func evaluateAll(w Workload, sp Space, points []Point, cost CostModel, eval EvalConfig, seed int64, workers int) ([]PointResult, error) {
	placement := placementSeeds(sp, seed)
	results, errs := grid.Map(len(points), workers, func(i int) (PointResult, error) {
		return Evaluate(w, points[i], cost, eval, placement[points[i].Topology])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("explore: point %d (%s): %w", points[i].Index, points[i].Topology, err)
		}
	}
	return results, nil
}

// JSON renders the result with stable indentation and a trailing
// newline — the byte-identical artifact the determinism tests pin.
func (r *SweepResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
