package core

import (
	"fmt"
	"sort"

	"repro/internal/stream"
)

// This file preserves the original dense timing-diagram engine as a
// reference implementation. It materializes the full [row][col] cell
// matrix and propagates a BUSY mark to every lower row for each
// allocated slot — O(rows² × horizon) — exactly as the paper's
// pseudocode reads. The optimized engine in diagram.go must stay
// byte-identical to it: the differential tests in fuzz_test.go build
// both on random element sets and compare ResultRow, every Row and
// DelayUpperBound. Keep the two files in sync when the algorithm
// changes; the dense version is the spec, the bitset version is the
// implementation. It is test code, so it never ships in the package.

// denseDiagram is the reference timing diagram: rows[0..n-1] are the
// HP elements in non-increasing priority order and the final row is
// the result row whose FREE slots are usable by the analysed stream.
type denseDiagram struct {
	Elements []Element // sorted by non-increasing priority, ties by ID
	Horizon  int       // number of time slots (the paper's dtime)
	cells    [][]Cell  // [row][col]; len == len(Elements)+1
	demand   [][]int   // [row][window] remaining slots to claim
	rowOf    map[stream.ID]int
}

// newDenseDiagram builds the initial timing diagram for the given HP
// elements over the given horizon, treating every element as direct
// (the paper's Generate_Init_Diagram). Call Modify to apply the
// indirect-element rule.
func newDenseDiagram(elems []Element, horizon int) (*denseDiagram, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("core: horizon %d must be positive", horizon)
	}
	sorted := make([]Element, len(elems))
	copy(sorted, elems)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Priority != sorted[j].Priority {
			return sorted[i].Priority > sorted[j].Priority
		}
		return sorted[i].ID < sorted[j].ID
	})
	d := &denseDiagram{
		Elements: sorted,
		Horizon:  horizon,
		cells:    make([][]Cell, len(sorted)+1),
		demand:   make([][]int, len(sorted)),
		rowOf:    make(map[stream.ID]int, len(sorted)),
	}
	for i := range d.cells {
		d.cells[i] = make([]Cell, horizon)
	}
	for i, e := range sorted {
		if e.Period <= 0 || e.Length <= 0 {
			return nil, fmt.Errorf("core: element %d has non-positive period/length (%d/%d)", e.ID, e.Period, e.Length)
		}
		if _, dup := d.rowOf[e.ID]; dup {
			return nil, fmt.Errorf("core: duplicate element %d", e.ID)
		}
		d.rowOf[e.ID] = i
		windows := (horizon + e.Period - 1) / e.Period
		d.demand[i] = make([]int, windows)
		for k := range d.demand[i] {
			d.demand[i][k] = e.Length
		}
	}
	d.layout(0)
	return d, nil
}

// layout re-derives all cells of rows from..end from the current
// per-window demands: rows above from are kept fixed, their BUSY marks
// re-propagated, and each row from..end is scanned in priority order.
func (d *denseDiagram) layout(from int) {
	for r := from; r < len(d.cells); r++ {
		for col := range d.cells[r] {
			d.cells[r][col] = Free
		}
	}
	for upper := 0; upper < from; upper++ {
		for col, c := range d.cells[upper] {
			if c == Allocated {
				for r := from; r < len(d.cells); r++ {
					d.cells[r][col] = Busy
				}
			}
		}
	}
	for r := from; r < len(d.Elements); r++ {
		d.scanRow(r)
	}
}

// scanRow runs the paper's per-element greedy allocation for one row:
// within each period window the element claims its remaining demand
// from the first free slots, marks the slots it was preempted in as
// WAITING, and propagates BUSY to every lower row for each slot it
// claims. Only a window truncated by the horizon has its demand
// clamped to what was placed.
func (d *denseDiagram) scanRow(row int) {
	e := d.Elements[row]
	for k, start := 0, 0; start < d.Horizon; k, start = k+1, start+e.Period {
		need := d.demand[row][k]
		allocated := 0
		for l := 0; l < e.Period && allocated < need; l++ {
			col := start + l
			if col >= d.Horizon {
				break
			}
			switch d.cells[row][col] {
			case Free:
				d.cells[row][col] = Allocated
				allocated++
				for below := row + 1; below < len(d.cells); below++ {
					d.cells[below][col] = Busy
				}
			case Busy:
				d.cells[row][col] = Waiting
			}
		}
		if start+e.Period > d.Horizon {
			d.demand[row][k] = allocated
		}
	}
}

// Row returns a copy of the cells of the element with the given ID.
func (d *denseDiagram) Row(id stream.ID) ([]Cell, bool) {
	row, ok := d.rowOf[id]
	if !ok {
		return nil, false
	}
	out := make([]Cell, d.Horizon)
	copy(out, d.cells[row])
	return out, true
}

// ResultRow returns a copy of the result row.
func (d *denseDiagram) ResultRow() []Cell {
	out := make([]Cell, d.Horizon)
	copy(out, d.cells[len(d.cells)-1])
	return out
}

// Modify applies the paper's Modify_Diagram; see Diagram.Modify for
// the full semantics. The two implementations must stay in lock-step.
func (d *denseDiagram) Modify() {
	order := d.modifyOrder()
	for _, row := range order {
		e := d.Elements[row]
		viaRows := make([]int, 0, len(e.Via))
		for _, v := range e.Via {
			if vr, ok := d.rowOf[v]; ok {
				viaRows = append(viaRows, vr)
			}
		}
		changed := false
		for col := 0; col < d.Horizon; col++ {
			c := d.cells[row][col]
			if c != Allocated && c != Waiting {
				continue
			}
			requested := false
			for _, vr := range viaRows {
				if vc := d.cells[vr][col]; vc == Allocated || vc == Waiting {
					requested = true
					break
				}
			}
			if requested {
				continue
			}
			if c == Allocated {
				d.demand[row][col/e.Period]--
				changed = true
			}
			d.cells[row][col] = Free
		}
		if changed {
			d.layout(row + 1)
		}
	}
}

// modifyOrder returns the rows of the indirect elements in ascending
// blocking-chain depth, ties broken lower-priority-row first.
func (d *denseDiagram) modifyOrder() []int {
	depth := make([]int, len(d.Elements))
	var visit func(row int, seen map[int]bool) int
	visit = func(row int, seen map[int]bool) int {
		if depth[row] != 0 {
			return depth[row]
		}
		if seen[row] {
			return 1 // cycle guard: treat as direct depth
		}
		seen[row] = true
		e := d.Elements[row]
		dd := 1
		if e.Mode == Indirect {
			for _, v := range e.Via {
				if vr, ok := d.rowOf[v]; ok {
					if vd := visit(vr, seen) + 1; vd > dd {
						dd = vd
					}
				}
			}
			if dd == 1 {
				dd = 2 // indirect with no resolvable vias still ranks after directs
			}
		}
		delete(seen, row)
		depth[row] = dd
		return dd
	}
	for r := range d.Elements {
		visit(r, map[int]bool{})
	}
	var order []int
	for r, e := range d.Elements {
		if e.Mode == Indirect {
			order = append(order, r)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if depth[order[i]] != depth[order[j]] {
			return depth[order[i]] < depth[order[j]]
		}
		return order[i] > order[j] // lower priority (deeper row) first
	})
	return order
}

// DelayUpperBound scans the result row for the 1-indexed time at which
// the accumulated FREE slots reach required (-1 if never).
func (d *denseDiagram) DelayUpperBound(required int) int {
	if required <= 0 {
		return 0
	}
	got := 0
	last := d.cells[len(d.cells)-1]
	for col := 0; col < d.Horizon; col++ {
		if last[col] == Free {
			got++
			if got == required {
				return col + 1
			}
		}
	}
	return -1
}

// FreeSlots returns the number of FREE result-row slots up to and
// including the 1-indexed time t (clamped to the horizon).
func (d *denseDiagram) FreeSlots(t int) int {
	if t > d.Horizon {
		t = d.Horizon
	}
	got := 0
	last := d.cells[len(d.cells)-1]
	for col := 0; col < t; col++ {
		if last[col] == Free {
			got++
		}
	}
	return got
}
