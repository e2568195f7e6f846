package core

import (
	"fmt"

	"repro/internal/stream"
)

// Analyzer computes delay upper bounds for a validated stream set. It
// plays the role of the paper's host processor: it holds all traffic
// information and runs the feasibility test before the job is started.
type Analyzer struct {
	Set *stream.Set
	st  *hpState
	// hps caches materialized HP sets per stream; an entry with nil
	// Elems has not been built yet (every real HP set contains at least
	// its owner). NewAnalyzer materializes everything eagerly; Extend
	// leaves rows lazy, so an admission that recomputes three bounds
	// never pays for fifty HP-set materializations. Lazy fills are not
	// synchronized — parallel batch paths touch their rows up front
	// (see calUPool callers) before fanning out.
	hps []HPSet
}

// NewAnalyzer validates the set and builds every HP set.
func NewAnalyzer(set *stream.Set) (*Analyzer, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	st := buildHPState(set)
	a := &Analyzer{Set: set, st: st, hps: make([]HPSet, set.Len())}
	for j := range a.hps {
		a.hps[j] = st.materialize(j)
	}
	return a, nil
}

// Extend returns an analyzer for cand, which must extend a's stream
// set by appending streams (the first Len() entries must be the very
// same streams; topology and router latency must match). The HP-set
// fixpoint is warm-started from a's converged state — the admission
// fast path: adding streams only grows HP sets, so the old state is a
// valid starting point and only the new streams' pairwise overlaps are
// computed. HP sets of the extended analyzer materialize lazily on
// first use. The original analyzer is not modified and remains valid.
func (a *Analyzer) Extend(cand *stream.Set) (*Analyzer, error) {
	n := a.Set.Len()
	if cand.Len() < n {
		return nil, fmt.Errorf("core: extend: candidate has %d streams, base has %d", cand.Len(), n)
	}
	if cand.Topology != a.Set.Topology || cand.RouterLatency != a.Set.RouterLatency {
		return nil, fmt.Errorf("core: extend: candidate machine differs from base")
	}
	for j := 0; j < n; j++ {
		if cand.Streams[j] != a.Set.Streams[j] {
			return nil, fmt.Errorf("core: extend: stream %d differs from base", j)
		}
	}
	// The base prefix was validated when the base analyzer was built
	// (and is pinned pointer-identical above), so only the appended
	// tail needs checking.
	if err := cand.ValidateFrom(n); err != nil {
		return nil, err
	}
	return &Analyzer{Set: cand, st: a.st.extend(cand), hps: make([]HPSet, cand.Len())}, nil
}

// hp returns stream j's HP set, materializing it on first use.
func (a *Analyzer) hp(j int) *HPSet {
	if a.hps[j].Elems == nil {
		a.hps[j] = a.st.materialize(j)
	}
	return &a.hps[j]
}

// HP returns the HP set of the given stream.
func (a *Analyzer) HP(id stream.ID) (HPSet, error) {
	if id < 0 || int(id) >= len(a.hps) {
		return HPSet{}, fmt.Errorf("core: no stream %d", id)
	}
	return *a.hp(int(id)), nil
}

// BDG returns the blocking dependency graph of the given stream.
func (a *Analyzer) BDG(id stream.ID) (*BDG, error) {
	hp, err := a.HP(id)
	if err != nil {
		return nil, err
	}
	return NewBDG(id, hp.WithoutOwner()), nil
}

// Diagram builds the final (modified) timing diagram for the given
// stream over the given horizon.
func (a *Analyzer) Diagram(id stream.ID, horizon int) (*Diagram, error) {
	if _, err := a.HP(id); err != nil {
		return nil, err
	}
	d, err := newDiagram(a.elements(id, nil), horizon, nil)
	if err != nil {
		return nil, err
	}
	d.Modify()
	return d, nil
}

// InitialDiagram builds the initial (pre-Modify) timing diagram, i.e.
// every element treated as direct — the paper's Figure 7 view.
func (a *Analyzer) InitialDiagram(id stream.ID, horizon int) (*Diagram, error) {
	if _, err := a.HP(id); err != nil {
		return nil, err
	}
	return newDiagram(a.elements(id, nil), horizon, nil)
}

// Verdict is the feasibility result for one stream.
type Verdict struct {
	ID       stream.ID
	U        int // delay upper bound; -1 if not found within the deadline
	Deadline int
	Feasible bool // U >= 0 && U <= Deadline
}

// Report is the outcome of DetermineFeasibility for a whole set.
type Report struct {
	Verdicts []Verdict
	Feasible bool // all streams feasible
}

// NewReport assembles the report over set from its bounds u, indexed
// by stream ID: a stream is feasible iff its U exists and is at most
// its deadline, and the set iff every stream is.
func NewReport(set *stream.Set, u []int) *Report {
	rep := &Report{Feasible: true, Verdicts: make([]Verdict, set.Len())}
	for i, s := range set.Streams {
		v := Verdict{ID: s.ID, U: u[i], Deadline: s.Deadline, Feasible: u[i] >= 0 && u[i] <= s.Deadline}
		rep.Verdicts[i] = v
		if !v.Feasible {
			rep.Feasible = false
		}
	}
	return rep
}

// DetermineFeasibility runs the paper's Determine-Feasibility: it
// computes U for every stream (highest priority first) and succeeds iff
// every U exists and is at most the stream's deadline.
func DetermineFeasibility(set *stream.Set) (*Report, error) {
	a, err := NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	return a.feasibility()
}

// feasibility is Determine-Feasibility over a's set.
func (a *Analyzer) feasibility() (*Report, error) {
	u := make([]int, a.Set.Len())
	for _, s := range a.Set.ByPriorityDesc() {
		var err error
		if u[s.ID], err = a.CalU(s.ID); err != nil {
			return nil, err
		}
	}
	return NewReport(a.Set, u), nil
}
