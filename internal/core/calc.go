package core

import (
	"fmt"
	"slices"

	"repro/internal/stream"
)

// NewCalc returns a itself.
//
// Deprecated: Cal_U's methods live on Analyzer, whose every call
// borrows its scratch from the pooled arenas; call them directly.
func (a *Analyzer) NewCalc() *Analyzer { return a }

// elements carves the diagram rows for id's HP set (owner excluded)
// from ar, or allocates them when ar is nil. The rows are owned by the
// next diagram built from them.
func (a *Analyzer) elements(id stream.ID, ar *Arena) []Element {
	h := a.hp(int(id))
	elems := ar.grabElements(len(h.Elems))[:0]
	for i := range h.Elems {
		e := &h.Elems[i]
		if e.ID == h.Owner {
			continue
		}
		s := a.Set.Get(e.ID)
		elems = append(elems, Element{
			ID:       s.ID,
			Priority: s.Priority,
			Period:   s.Period,
			Length:   s.Length,
			Mode:     e.Mode,
			Via:      e.Via,
		})
	}
	return elems
}

// CalU computes the delay upper bound of the given stream with the
// deadline as horizon (the paper's Cal_U). It returns -1 when the
// bound does not exist within the deadline (the stream is infeasible).
// The result is CalUHorizon(id, deadline); see calUBounded for how it
// gets there without always laying the diagram out to the deadline.
//
// Every Cal_U method borrows its scratch, element rows included, from
// the pooled arenas for the length of the call, so computing bounds
// for a whole set, or for the same set over and over as the
// sensitivity searches and the period inflation do, stops allocating
// once the arenas have warmed up. Once every HP set the calls read is
// materialized (NewAnalyzer does it eagerly; see CalUBatchParallel),
// the methods are safe for concurrent use.
func (a *Analyzer) CalU(id stream.ID) (int, error) {
	s := a.Set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	ar := borrowArena()
	defer returnArena(ar)
	return calUBounded(a.elements(id, ar), s.Latency, s.Deadline, ar)
}

// calUBounded is the paper's Cal_U over elems with the deadline as
// horizon: the time at which the result row has accumulated required
// FREE slots, or -1 when it has not by the deadline. Like the paper's
// scan it stops at the bound. It lays the initial diagram out at a
// short horizon h, modifies a clone, and returns the bound u as soon
// as u lies below the frontier that Modify certifies: below it, every
// longer horizon, the deadline included, gives the same result row.
// Otherwise it grows the unmodified diagram (Grow is exact before
// Modify) and tries again. The horizons are max(64, required) times
// powers of 8 up to deadline/8, then the deadline itself, so the
// horizons below the deadline cost at most a seventh of the final
// layout, and the last attempt is exactly CalUHorizon's computation.
// A horizon whose frontier starts below required is skipped: Modify
// only lowers the frontier, and u ≥ required. elems must have positive
// periods, as the HP rows of a validated set do.
func calUBounded(elems []Element, required, deadline int, ar *Arena) (int, error) {
	indirect := slices.ContainsFunc(elems, func(e Element) bool { return e.Mode == Indirect })
	var buf [8]int
	horizons := buf[:0]
	for h := max(64, required); h <= deadline/8; h *= 8 {
		if !indirect || cutFrontier(elems, h) >= required {
			horizons = append(horizons, h)
		}
	}
	horizons = append(horizons, deadline)
	d, err := newDiagram(elems, horizons[0], ar)
	if err != nil {
		return 0, err
	}
	for _, h := range horizons[:len(horizons)-1] {
		if err := d.Grow(h); err != nil {
			return 0, err
		}
		u, f := d.DelayUpperBound(required), h
		if indirect {
			m := d.clone(ar)
			f = m.modify(true)
			u = m.DelayUpperBound(required)
		}
		if u >= 0 && u <= f {
			return u, nil
		}
	}
	if err := d.Grow(deadline); err != nil {
		return 0, err
	}
	d.Modify()
	return d.DelayUpperBound(required), nil
}

// CalUHorizon computes the delay upper bound with an explicit horizon.
// It always lays the diagram out to the horizon, so CalUHorizon(id,
// deadline) is the oracle CalU is tested against.
func (a *Analyzer) CalUHorizon(id stream.ID, horizon int) (int, error) {
	s := a.Set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	ar := borrowArena()
	defer returnArena(ar)
	d, err := newDiagram(a.elements(id, ar), horizon, ar)
	if err != nil {
		return 0, err
	}
	d.Modify()
	return d.DelayUpperBound(s.Latency), nil
}

// MaxSearchHorizon caps CalUSearchCap. A bound not found within this
// many flit times means the HP demand saturates the stream's capacity.
const MaxSearchHorizon = 1 << 21

// CalUSearchCap computes a delay upper bound without a deadline cap,
// searching horizons up to maxHorizon; it returns -1 when no bound
// exists within maxHorizon. The simulation study uses it, because it
// inflates periods when U > T rather than rejecting streams, and
// evaluation harnesses pass a cap near the simulated time: a bound
// beyond the experiment horizon carries no information and is
// expensive to chase.
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
//
// The horizons h0·2^k are not all visited. A bound u is accepted only
// once u + margin ≤ h, and u ≥ L, so no horizon below L + margin can
// end the search; it could only record a best-effort bound, which any
// larger horizon finding a bound overrides. The search therefore lays
// the initial diagram out directly at the first horizon that can
// accept (or at the last one the cap allows) — the construction is
// window-local, so that is byte-identical to growing it there — and
// doubles from there, growing the one initial diagram in place and
// applying Modify to a clone per horizon (Modify releases are not
// window-local, so the unmodified original is the one that grows).
// The last horizon is Modified in place, and sets whose HP elements
// are all direct skip Modify entirely: it would release nothing. Only
// when every visited horizon finds no bound are the skipped ones
// evaluated, largest first, so the best-effort result stays exactly
// that of the full doubling sequence.
func (a *Analyzer) CalUSearchCap(id stream.ID, maxHorizon int) (int, error) {
	s := a.Set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	if maxHorizon < 1 {
		return 0, fmt.Errorf("core: max horizon %d must be positive", maxHorizon)
	}
	ar := borrowArena()
	defer returnArena(ar)
	elems := a.elements(id, ar)
	margin, hasIndirect := 0, false
	for i := range elems {
		if elems[i].Period > margin {
			margin = elems[i].Period
		}
		if elems[i].Mode == Indirect {
			hasIndirect = true
		}
	}
	// The margin is max period × (elements + 1); with 2^21-slot
	// periods and enough elements the product overflows on 32-bit
	// ints. Any margin at or beyond MaxSearchHorizon already forces
	// the search to its cap, so clamping there preserves behavior
	// while staying in range.
	if margin > MaxSearchHorizon/(len(elems)+1) {
		margin = MaxSearchHorizon
	} else {
		margin *= len(elems) + 1
	}
	h0 := s.Deadline
	if s.Latency > h0 {
		h0 = s.Latency
	}
	if h0 < 1 {
		h0 = 1
	}
	if h0 > maxHorizon {
		return -1, nil
	}
	// Jump to the first horizon h with h - L ≥ margin. L ≤ h0 ≤ h, so
	// the difference cannot overflow.
	firstHorizon := h0
	for firstHorizon-s.Latency < margin && firstHorizon <= maxHorizon/2 {
		firstHorizon *= 2
	}
	init, err := newDiagram(elems, firstHorizon, ar)
	if err != nil {
		return 0, err
	}
	best := -1
	for h := firstHorizon; ; {
		d := init
		if hasIndirect {
			if h <= maxHorizon/2 {
				d = init.clone(ar)
			}
			d.Modify()
		}
		if u := d.DelayUpperBound(s.Latency); u >= 0 {
			best = u
			if u+margin <= h {
				return u, nil
			}
		}
		if h > maxHorizon/2 {
			break
		}
		h *= 2
		if err := init.Grow(h); err != nil {
			return 0, err
		}
	}
	// firstHorizon is h0·2^k, so halving walks the skipped horizons
	// exactly. Without indirect elements every diagram is a prefix of
	// the larger ones, so a skipped horizon cannot find a bound the
	// visited ones missed.
	for h := firstHorizon; best < 0 && hasIndirect && h > h0; {
		h /= 2
		d, err := newDiagram(elems, h, ar)
		if err != nil {
			return 0, err
		}
		d.Modify()
		best = d.DelayUpperBound(s.Latency)
	}
	return best, nil
}
