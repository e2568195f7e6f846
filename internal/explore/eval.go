package explore

import (
	"fmt"
	"sort"

	"repro/internal/admit"
	"repro/internal/eventsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// EvalConfig tunes per-point evaluation. The zero value means: no
// simulator cross-validation, 5000-cycle validation runs when it is
// enabled.
type EvalConfig struct {
	// Validate cross-checks every fully-admitting point in the
	// flit-level simulator with the point's buffer depth; a point only
	// counts as Admitting when the run shows zero deadline misses.
	Validate bool
	// ValidateCycles is the simulated horizon per validation run
	// (default 5000 flit times, warmup 0 so the critical-instant
	// releases are counted).
	ValidateCycles int
}

func (c EvalConfig) cycles() int {
	if c.ValidateCycles <= 0 {
		return 5000
	}
	return c.ValidateCycles
}

// PointResult scores one configuration. Admitting is the headline
// verdict: the whole workload was admitted by the analysis and — when
// validation ran — the simulator saw zero deadline misses.
type PointResult struct {
	Point
	Nodes int   `json:"nodes"`
	Links int   `json:"links"`
	Cost  int64 `json:"cost"`

	Total         int     `json:"total"`    // demands offered
	Admitted      int     `json:"admitted"` // demands admitted by the analysis
	AdmittedUtil  float64 `json:"admittedUtil"`
	TotalUtil     float64 `json:"totalUtil"`
	FullyAdmitted bool    `json:"fullyAdmitted"`

	Validated    bool `json:"validated"` // a simulator run backs this point
	SimDelivered int  `json:"simDelivered,omitempty"`
	SimMisses    int  `json:"simMisses,omitempty"`
	// ValidateError records a failed validation run. The sweep keeps
	// going: the point is reported non-admitting with the error
	// attached instead of aborting the whole study.
	ValidateError string `json:"validateError,omitempty"`

	Admitting bool `json:"admitting"`
}

// Evaluate scores one grid point: place the workload, apply the
// priority policy, offer every stream highest-priority-first to an
// admission controller over the point's topology and routing, then
// optionally cross-validate a full admission in the simulator.
//
// The controller is the incremental front-end of the paper's
// Determine-Feasibility (its reports are pinned byte-identical to
// core.DetermineFeasibility over the admitted set), so a point's score
// is exactly "how much of the workload the paper's test admits on this
// network".
func Evaluate(w Workload, p Point, cost CostModel, cfg EvalConfig, placementSeed int64) (PointResult, error) {
	res := PointResult{Point: p, Total: len(w.Demands), TotalUtil: w.TotalUtil()}
	topo, err := topology.Parse(p.Topology)
	if err != nil {
		return res, err
	}
	router, err := routerFor(topo, p.Routing)
	if err != nil {
		return res, err
	}
	res.Nodes = topo.Nodes()
	res.Links = len(topology.Channels(topo))
	res.Cost = cost.Cost(res.Nodes, res.Links, p.VCs, p.Buffer)

	specs := w.place(topo, placementSeed)
	if err := assignPriorities(specs, p.Policy, p.VCs); err != nil {
		return res, err
	}

	// Offer order: most important first, ties in demand order — the
	// deterministic greedy order under which admitting a stream can
	// only steal capacity from less important ones still waiting.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if specs[order[a]].Priority != specs[order[b]].Priority {
			return specs[order[a]].Priority > specs[order[b]].Priority
		}
		return order[a] < order[b]
	})

	ctl, err := admit.New(topo, admit.Config{Workers: 1, Router: router})
	if err != nil {
		return res, err
	}
	var adm float64
	var admitted []admit.Spec
	for _, i := range order {
		r, err := ctl.Admit(specs[i])
		if err != nil {
			return res, fmt.Errorf("explore: point %d admit: %w", p.Index, err)
		}
		if r.Admitted {
			res.Admitted++
			adm += float64(specs[i].Length) / float64(specs[i].Period)
			admitted = append(admitted, specs[i])
		}
	}
	res.AdmittedUtil = roundUtil(adm)
	res.FullyAdmitted = res.Admitted == res.Total
	res.Admitting = res.FullyAdmitted

	if cfg.Validate && res.FullyAdmitted {
		misses, delivered, err := simValidate(topo, router, admitted, p.Buffer, cfg.cycles())
		if err != nil {
			res.ValidateError = err.Error()
			res.Admitting = false
			return res, nil
		}
		res.Validated = true
		res.SimMisses = misses
		res.SimDelivered = delivered
		res.Admitting = misses == 0
	}
	return res, nil
}

// assignPriorities applies the point's priority policy in place and
// quantizes the result onto vcs levels (1..vcs, larger = more
// important), rank-banded exactly like priority.Quantize: the paper's
// scheme spends one virtual channel per priority level, so a
// configuration with B VCs cannot tell more than B bands apart.
func assignPriorities(specs []admit.Spec, policy string, vcs int) error {
	n := len(specs)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	switch policy {
	case PolicyWorkload:
		// Keep the workload's relative order: rank by current
		// priority, ties by later index first (matching
		// priority.Quantize's tie-break).
		sort.SliceStable(rank, func(a, b int) bool {
			if specs[rank[a]].Priority != specs[rank[b]].Priority {
				return specs[rank[a]].Priority < specs[rank[b]].Priority
			}
			return rank[a] > rank[b]
		})
	case PolicyRateMonotonic:
		// Shorter period = more important = later rank.
		sort.SliceStable(rank, func(a, b int) bool {
			if specs[rank[a]].Period != specs[rank[b]].Period {
				return specs[rank[a]].Period > specs[rank[b]].Period
			}
			return rank[a] > rank[b]
		})
	case PolicyDeadlineMonotonic:
		sort.SliceStable(rank, func(a, b int) bool {
			da, db := specs[rank[a]].Deadline, specs[rank[b]].Deadline
			if da != db {
				return da > db
			}
			return rank[a] > rank[b]
		})
	default:
		return fmt.Errorf("explore: unknown priority policy %q", policy)
	}
	for r, i := range rank {
		p := 1 + r*vcs/n
		if p > vcs {
			p = vcs
		}
		specs[i].Priority = p
	}
	return nil
}

// simulate runs one validation simulation on the event engine. It is
// swappable so tests can inject a failing run and prove a validation
// error stays in the point result.
var simulate = func(set *stream.Set, cfg sim.Config) (*sim.Result, error) {
	s, err := eventsim.New(set, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// simValidate replays the admitted set through the flit-level
// simulator at the point's buffer depth and returns (deadline misses,
// deliveries). All streams release at cycle 0 — the critical instant
// of the analysis — and warmup is 0 so every delivery counts.
func simValidate(topo topology.Topology, router routing.Router, specs []admit.Spec, buffer, cycles int) (int, int, error) {
	set := stream.NewSet(topo)
	for _, sp := range specs {
		if _, err := set.Add(router, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
			return 0, 0, err
		}
	}
	res, err := simulate(set, sim.Config{
		Cycles: cycles, Warmup: 0,
		Arbiter: sim.Preemptive, BufferDepth: buffer,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.TotalMisses(), res.TotalDelivered(), nil
}
