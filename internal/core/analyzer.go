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

// elements assembles the timing-diagram rows for id's HP set.
func (a *Analyzer) elements(id stream.ID) []Element {
	elems := a.hp(int(id)).WithoutOwner()
	out := make([]Element, 0, len(elems))
	for _, e := range elems {
		s := a.Set.Get(e.ID)
		out = append(out, Element{
			ID:       s.ID,
			Priority: s.Priority,
			Period:   s.Period,
			Length:   s.Length,
			Mode:     e.Mode,
			Via:      e.Via,
		})
	}
	return out
}

// Diagram builds the final (modified) timing diagram for the given
// stream over the given horizon.
func (a *Analyzer) Diagram(id stream.ID, horizon int) (*Diagram, error) {
	if _, err := a.HP(id); err != nil {
		return nil, err
	}
	d, err := NewDiagram(a.elements(id), horizon)
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
	return NewDiagram(a.elements(id), horizon)
}

// CalU computes the delay upper bound of the given stream with the
// deadline as horizon (the paper's Cal_U). It returns -1 when the bound
// does not exist within the deadline (the stream is infeasible).
//
// CalU, CalUHorizon, CalUSearch and CalUSearchCap are one-shot
// conveniences over a throwaway Calc. Their diagram scratch comes from
// the pooled arenas all the same; a batch caller that holds a Calc
// (see NewCalc) also reuses its element buffer.
func (a *Analyzer) CalU(id stream.ID) (int, error) {
	return a.NewCalc().CalU(id)
}

// CalUHorizon computes the delay upper bound with an explicit horizon.
func (a *Analyzer) CalUHorizon(id stream.ID, horizon int) (int, error) {
	return a.NewCalc().CalUHorizon(id, horizon)
}

// MaxSearchHorizon caps CalUSearch. A bound not found within this many
// flit times means the HP demand saturates the stream's capacity.
const MaxSearchHorizon = 1 << 21

// CalUSearch computes a delay upper bound without a deadline cap: it is
// CalUSearchCap at MaxSearchHorizon. Used by the simulation study,
// which inflates periods when U > T rather than rejecting streams.
func (a *Analyzer) CalUSearch(id stream.ID) (int, error) {
	return a.CalUSearchCap(id, MaxSearchHorizon)
}

// CalUSearchCap is CalUSearch with an explicit horizon cap; it returns
// -1 when no bound exists within maxHorizon. Evaluation harnesses use a
// cap near the simulated time — a bound beyond the experiment horizon
// carries no information and is expensive to chase.
//
// The search itself defines the bound. It visits the horizons h0·2^k,
// where h0 is the larger of the deadline and the latency, up to the
// cap. It returns the first bound u found at a horizon h with
// u + margin ≤ h, where the margin is the largest HP period times the
// number of HP elements plus one. When no visited horizon passes that
// test, it returns the bound of the largest horizon that found one, or
// -1. The margin keeps u clear of the windows the horizon cuts short,
// but it does not make u the bound of any longer horizon. Once Modify
// runs, Cal_U need not settle as the horizon grows: it can alternate
// forever (TestCalUOscillatesWithHorizon), and a bound the margin
// accepts can differ from the bound at every longer horizon
// (TestCalUMarginRuleUnsound). CalU, which answers for one horizon,
// stops early only on a certificate from the Modify run itself.
func (a *Analyzer) CalUSearchCap(id stream.ID, maxHorizon int) (int, error) {
	return a.NewCalc().CalUSearchCap(id, maxHorizon)
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

// DetermineFeasibility runs the paper's Determine-Feasibility: it
// computes U for every stream (highest priority first) and succeeds iff
// every U exists and is at most the stream's deadline.
func DetermineFeasibility(set *stream.Set) (*Report, error) {
	a, err := NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	return a.NewCalc().Feasibility()
}
