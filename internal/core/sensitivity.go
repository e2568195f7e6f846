package core

import (
	"fmt"

	"repro/internal/stream"
)

// Sensitivity answers the capacity-planning questions a host processor
// faces when admitting new traffic: how much bigger could a stream's
// messages get, or how much faster could it run, before some deadline
// in the set breaks? Both searches re-validate and re-analyse the set
// per candidate value, but share one Analyzer across candidates: the
// HP sets depend only on paths and priorities, which the searches
// never touch, and Cal_U's scratch comes from the pooled arenas.
//
// Both are binary searches, which find the boundary only when
// feasibility is monotone in the searched parameter, and the analysis
// does not guarantee that. Every value either search returns has been
// tested feasible, but it need not be the extreme one:
//   - In T, monotonicity is false. A longer period can raise other
//     streams' bounds: doubling one stream's T and D raised 10 bounds
//     in 320 trials over §5's inflated pools (ROADMAP item 1(b)). So
//     MinFeasiblePeriod can return a period above the smallest
//     feasible one, and a period between its answer and the current
//     one can be infeasible.
//   - In C, monotonicity is unverified: no measurement has looked for
//     a bound that falls when a message grows. MaxFeasibleLength's
//     answer is a feasible length, not a proven largest one.

// feasibilityProbe builds the per-candidate feasibility check the
// sensitivity searches share: validate the mutated set, then run
// Determine-Feasibility on one Analyzer, built by NewAnalyzer on the
// first probe and reused after it. The searches change only a length
// or a period, never a path or a priority, so the HP sets stay valid.
func feasibilityProbe(set *stream.Set) func() (bool, error) {
	var a *Analyzer
	return func() (bool, error) {
		var err error
		if a == nil {
			a, err = NewAnalyzer(set)
		} else {
			err = set.Validate()
		}
		if err != nil {
			return false, err
		}
		rep, err := a.feasibility()
		if err != nil {
			return false, err
		}
		return rep.Feasible, nil
	}
}

// MaxFeasibleLength binary-searches [1, limit] for the largest message
// length for stream id (keeping everything else fixed) such that the
// whole set stays feasible. The length it returns keeps the set
// feasible; it is the largest such length only if feasibility is
// monotone in C (see the top of this file). It returns 0 when the set
// is infeasible at every length it tried, length 1 included.
func MaxFeasibleLength(set *stream.Set, id stream.ID, limit int) (int, error) {
	s := set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	if limit < 1 {
		return 0, fmt.Errorf("core: limit %d must be >= 1", limit)
	}
	orig := s.Length
	origLat := s.Latency
	defer func() {
		s.Length = orig
		s.Latency = origLat
	}()
	probe := feasibilityProbe(set)
	try := func(c int) (bool, error) {
		s.Length = c
		s.Latency = stream.NetworkLatency(s.Path.Hops(), c)
		return probe()
	}
	// Binary search for the last feasible value, assuming feasibility
	// is monotone non-increasing in C: a longer message adds demand
	// and latency, but whether a shorter one can raise some bound is
	// unverified (see the top of this file).
	lo, hi := 0, limit // lo = known-feasible (0 = none), hi = first unknown
	okAt := 0
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			okAt = mid
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return okAt, nil
}

// MinFeasiblePeriod binary-searches [floor, current period] for the
// smallest period for stream id (with the deadline tracking the
// period) such that the whole set stays feasible. The period it
// returns keeps the set feasible, but feasibility is not monotone in T
// (see the top of this file), so a smaller feasible period may exist.
// It returns 0 when even the current period is infeasible.
func MinFeasiblePeriod(set *stream.Set, id stream.ID, floor int) (int, error) {
	s := set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	if floor < 1 {
		return 0, fmt.Errorf("core: floor %d must be >= 1", floor)
	}
	if floor > s.Period {
		return 0, fmt.Errorf("core: floor %d above current period %d", floor, s.Period)
	}
	origT, origD := s.Period, s.Deadline
	defer func() {
		s.Period = origT
		s.Deadline = origD
	}()
	probe := feasibilityProbe(set)
	try := func(t int) (bool, error) {
		s.Period = t
		s.Deadline = t
		return probe()
	}
	// Binary search for the first feasible value, assuming feasibility
	// is monotone non-decreasing in T. It is not: a longer period can
	// raise a bound (see the top of this file), so hi is a feasible
	// period, not always the smallest one.
	ok, err := try(origT)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	lo, hi := floor, origT // hi = known feasible
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}
