package core

import (
	"fmt"
	"sort"

	"repro/internal/stream"
)

// Contribution quantifies how much one HP element delays the analysed
// stream: the increase of the delay upper bound relative to the bound
// with that element removed from the HP set (marginal interference).
type Contribution struct {
	ID       stream.ID
	Mode     Mode
	Marginal int // U(full) - U(without this element); -1 when U(full) does not exist
}

// InterferenceReport decomposes a stream's delay upper bound.
type InterferenceReport struct {
	Stream        stream.ID
	Latency       int // L: the irreducible network latency
	U             int // the bound with the full HP set (-1 if not found)
	Horizon       int
	Contributions []Contribution // sorted by decreasing marginal impact
}

// Interference computes the marginal contribution of every HP element
// of the given stream at the given horizon: for each element, the
// timing diagram is rebuilt without it and the bound recomputed. The
// marginals do not sum to U - L in general (blocking interacts), but
// they rank the blockers — the actionable output for an integrator
// deciding what to re-prioritise, re-route or slow down.
func (a *Analyzer) Interference(id stream.ID, horizon int) (*InterferenceReport, error) {
	s := a.Set.Get(id)
	if s == nil {
		return nil, fmt.Errorf("core: no stream %d", id)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("core: horizon %d must be positive", horizon)
	}
	elems := a.elements(id, nil)
	full, err := NewDiagram(elems, horizon)
	if err != nil {
		return nil, err
	}
	full.Modify()
	rep := &InterferenceReport{
		Stream:  id,
		Latency: s.Latency,
		U:       full.DelayUpperBound(s.Latency),
		Horizon: horizon,
	}
	for i, e := range elems {
		without := make([]Element, 0, len(elems)-1)
		for j, o := range elems {
			if j == i {
				continue
			}
			// Via references to the removed element are dropped: an
			// indirect blocker that only reached the stream through it
			// loses that chain.
			oo := o
			oo.Via = removeID(o.Via, e.ID)
			without = append(without, oo)
		}
		d, err := NewDiagram(without, horizon)
		if err != nil {
			return nil, err
		}
		d.Modify()
		uw := d.DelayUpperBound(s.Latency)
		c := Contribution{ID: e.ID, Mode: e.Mode, Marginal: -1}
		if rep.U >= 0 && uw >= 0 {
			c.Marginal = rep.U - uw
		} else if rep.U < 0 && uw >= 0 {
			// The element is what pushes the bound past the horizon;
			// report the full gap to the horizon as a floor.
			c.Marginal = horizon - uw
		} else if rep.U >= 0 && uw < 0 {
			c.Marginal = 0
		}
		rep.Contributions = append(rep.Contributions, c)
	}
	sort.SliceStable(rep.Contributions, func(i, j int) bool {
		return rep.Contributions[i].Marginal > rep.Contributions[j].Marginal
	})
	return rep, nil
}

func removeID(via []stream.ID, id stream.ID) []stream.ID {
	var out []stream.ID
	for _, v := range via {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// Format renders the report.
func (r *InterferenceReport) Format() string {
	out := fmt.Sprintf("interference on M%d: L=%d, U=%d (horizon %d)\n", r.Stream, r.Latency, r.U, r.Horizon)
	for _, c := range r.Contributions {
		out += fmt.Sprintf("  M%-3d %-8s marginal +%d\n", c.ID, c.Mode, c.Marginal)
	}
	return out
}
