// Package workload generates the random periodic message-stream sets
// of the paper's simulation study (§5):
//
//   - processing nodes are interconnected in a 10×10 two-dimensional
//     mesh with X-Y routing;
//   - each node is the source of at most one message stream, whose
//     destination is drawn from a spatial uniform distribution;
//   - the maximum message size C is uniformly distributed (the study
//     uses [1,40] flits — see DESIGN.md for the OCR reconstruction);
//   - the minimum inter-generation time T is uniformly distributed
//     (the study uses [40,90] flit times);
//   - every stream draws its priority uniformly from the configured
//     number of priority levels;
//   - when a stream's computed delay upper bound U exceeds its period,
//     the period (and deadline) is inflated to U so that all generated
//     traffic can be accommodated, exactly as the paper does.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Config parameterises the generator. The zero value is not valid; use
// PaperDefaults for the paper's setup.
type Config struct {
	MeshW, MeshH int
	Streams      int // number of message streams (<= number of nodes)
	PLevels      int // number of priority levels
	CMin, CMax   int // message length range, flits
	TMin, TMax   int // inter-generation time range, flit times
	Seed         int64
	// InflatePeriods applies the paper's rule T_i = max(T_i, U_i).
	// Disabled only by ablation experiments.
	InflatePeriods bool
	// UCap bounds the horizon searched for delay upper bounds during
	// period inflation; 0 means 65536 flit times (comfortably past the
	// paper's 30000-flit-time simulations).
	UCap int
}

// PaperDefaults returns the §5 configuration for a given stream count
// and priority-level count.
func PaperDefaults(streams, plevels int, seed int64) Config {
	return Config{
		MeshW: 10, MeshH: 10,
		Streams: streams, PLevels: plevels,
		CMin: 1, CMax: 40,
		TMin: 40, TMax: 90,
		Seed:           seed,
		InflatePeriods: true,
	}
}

func (c Config) validate() error {
	if c.MeshW < 2 || c.MeshH < 1 {
		return fmt.Errorf("workload: invalid mesh %dx%d", c.MeshW, c.MeshH)
	}
	if c.Streams < 1 || c.Streams > c.MeshW*c.MeshH {
		return fmt.Errorf("workload: %d streams on %d nodes", c.Streams, c.MeshW*c.MeshH)
	}
	if c.PLevels < 1 {
		return fmt.Errorf("workload: %d priority levels", c.PLevels)
	}
	if c.CMin < 1 || c.CMax < c.CMin {
		return fmt.Errorf("workload: invalid C range [%d,%d]", c.CMin, c.CMax)
	}
	if c.TMin < 1 || c.TMax < c.TMin {
		return fmt.Errorf("workload: invalid T range [%d,%d]", c.TMin, c.TMax)
	}
	return nil
}

// Generate builds a stream set per the configuration. Sources are
// distinct nodes (each node sources at most one stream); destinations
// are uniform over the other nodes. Priorities are uniform over
// 1..PLevels (larger = more important). When InflatePeriods is set, the
// paper's period-inflation rule is applied and the returned analyzer
// reflects the final set.
func Generate(cfg Config) (*stream.Set, *core.Analyzer, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := topology.NewMesh2D(cfg.MeshW, cfg.MeshH)
	router := routing.NewXY(m)
	set := stream.NewSet(m)

	// Distinct sources: a random permutation of the nodes.
	perm := rng.Perm(m.Nodes())
	for i := 0; i < cfg.Streams; i++ {
		src := topology.NodeID(perm[i])
		dst := src
		for dst == src {
			dst = topology.NodeID(rng.Intn(m.Nodes()))
		}
		prio := 1 + rng.Intn(cfg.PLevels)
		period := cfg.TMin + rng.Intn(cfg.TMax-cfg.TMin+1)
		length := cfg.CMin + rng.Intn(cfg.CMax-cfg.CMin+1)
		if _, err := set.Add(router, src, dst, prio, period, length, period); err != nil {
			return nil, nil, err
		}
	}

	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, nil, err
	}
	return finish(set, a, cfg)
}

// finish applies the accommodation rule when the configuration asks
// for it (shared by every generator).
func finish(set *stream.Set, a *core.Analyzer, cfg Config) (*stream.Set, *core.Analyzer, error) {
	if cfg.InflatePeriods {
		if _, err := Inflate(set, a, cfg.UCap); err != nil {
			return nil, nil, err
		}
	}
	return set, a, nil
}

// maxInflatePasses bounds the accommodation rule's passes over a set.
const maxInflatePasses = 8

// Inflate applies the paper's accommodation rule to set in place: if
// U_i > T_i, raise T_i (and the deadline) to U_i. Raising periods only
// lowers interference, so a bound computed against the heavier
// pre-inflation demand remains valid; passes over the set in ID order
// reach a fixpoint, and at most eight are made. Streams with no bound
// within ucap flit times (0 means 65536, as for Config.UCap) have their
// periods quadrupled instead, turning them into sporadic background
// traffic. It returns every stream's CalUSearchCap(id, ucap) against
// the final periods, indexed by stream ID.
//
// a must be an analyzer of set, and it stays one: HP sets depend only
// on paths and priorities, and Cal_U reads periods from the set. A
// stream's bound depends only on the periods of its HP set's members,
// itself included, so a pass recomputes a stream only when one of them
// changed after its last computation. Every other stream would compute
// the same bound and keep its period, so the periods are exactly those
// of recomputing every stream on every pass.
func Inflate(set *stream.Set, a *core.Analyzer, ucap int) ([]int, error) {
	return inflate(set, a, ucap, maxInflatePasses)
}

// inflate is Inflate with an explicit pass limit.
func inflate(set *stream.Set, a *core.Analyzer, ucap, maxPasses int) ([]int, error) {
	if ucap == 0 {
		ucap = 1 << 16
	}
	us := make([]int, set.Len())
	stale := make([]bool, set.Len())
	for i := range stale {
		stale[i] = true
	}
	calc := a.NewCalc()
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, s := range set.Streams {
			if !stale[s.ID] {
				continue
			}
			stale[s.ID] = false
			u, err := calc.CalUSearchCap(s.ID, ucap)
			if err != nil {
				return nil, err
			}
			us[s.ID] = u
			switch {
			case u > s.Period:
				s.Period = u
			case u < 0:
				// Inflating past the search cap is pointless (the
				// capped Cal_U search cannot use it) and the clamp
				// keeps the quadrupling provably inside int64.
				p := s.Period
				if p < 1 {
					p = 1
				}
				if p > core.MaxSearchHorizon/4 {
					p = core.MaxSearchHorizon / 4
				}
				s.Period = p * 4
			default:
				continue
			}
			s.Deadline = s.Period
			changed = true
			deps, err := a.Dependents(s.ID)
			if err != nil {
				return nil, err
			}
			for _, d := range deps {
				stale[d] = true
			}
		}
		if !changed {
			return us, nil
		}
	}
	// The pass limit stopped the rule short of a fixpoint: bring the
	// bounds the last changes made stale up to date, periods unchanged.
	for _, s := range set.Streams {
		if stale[s.ID] {
			u, err := calc.CalUSearchCap(s.ID, ucap)
			if err != nil {
				return nil, err
			}
			us[s.ID] = u
		}
	}
	return us, nil
}
