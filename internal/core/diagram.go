// Package core implements the paper's primary contribution: the delay
// upper-bound (U) calculation algorithm for real-time message streams in
// flit-level preemptive wormhole switching networks, and the message
// stream feasibility test built on it (paper §4).
//
// The analysis proceeds in three steps, mirroring the paper:
//
//  1. For every stream M_j, build the HP set — the streams of higher or
//     equal priority that can block M_j, either directly (overlapping
//     paths) or indirectly (through a chain of intervening streams).
//  2. Build M_j's timing diagram: one row per HP element, sorted by
//     non-increasing priority, plus a result row. Generate_Init_Diagram
//     allocates each element's periodic demand greedily, marking slots
//     ALLOCATED (transmitting), WAITING (requesting but preempted) or
//     BUSY (taken by a higher-priority row). When the HP set contains
//     indirect elements, Modify_Diagram releases the slots an indirect
//     element holds while none of its intermediate streams requests
//     them — an indirect blocker can only delay M_j through an
//     intermediate.
//  3. Cal_U scans the result row: U_j is the time at which the
//     accumulated FREE slots equal M_j's network latency L_j. The set
//     is feasible iff U_j <= D_j for every stream.
package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/stream"
)

// Cell is the state of one time slot in one row of a timing diagram.
type Cell uint8

const (
	// Free: the slot is not used by any higher-priority stream; it is
	// available to the row's stream (or, on the result row, to the
	// stream under analysis).
	Free Cell = iota
	// Busy: a higher-priority row transmits in this slot; the row's
	// stream neither holds nor requests it.
	Busy
	// Waiting: the row's stream requests the slot but is preempted by a
	// higher-priority stream.
	Waiting
	// Allocated: the row's stream transmits in this slot.
	Allocated
)

// String renders the cell as a single character (used by the renderer).
func (c Cell) String() string {
	switch c {
	case Free:
		return "."
	case Busy:
		return "-"
	case Waiting:
		return "w"
	case Allocated:
		return "#"
	}
	return "?"
}

// Mode says whether an HP element blocks the stream under analysis
// directly (overlapping paths) or indirectly (through intermediates).
type Mode uint8

const (
	// Direct blocking: the element's path overlaps the analysed
	// stream's path.
	Direct Mode = iota
	// Indirect blocking: the paths do not overlap but intervening
	// streams connect them (a blocking chain).
	Indirect
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Direct {
		return "DIRECT"
	}
	return "INDIRECT"
}

// Element is one row of a timing diagram: a blocking stream with its
// periodic demand and its blocking mode relative to the stream under
// analysis. Via lists the intermediate streams of an Indirect element
// (the IN field of the paper's HP-set structure); it is empty for
// Direct elements.
type Element struct {
	ID       stream.ID
	Priority int
	Period   int // T: release interval of the element's demand
	Length   int // C: slots demanded per period
	Mode     Mode
	Via      []stream.ID
}

// Diagram is the timing diagram of one stream's HP set: rows[0..n-1]
// are the HP elements in non-increasing priority order and the final
// row is the result row whose FREE slots are usable by the analysed
// stream. Column c (0-based) models time slot c+1, matching the paper's
// 1-indexed diagrams.
//
// The layout of the diagram is fully determined by the per-window
// demand of every row: window k of row r (time slots k*T+1 .. (k+1)*T)
// claims demand[r][k] slots, greedily from the start of the window.
// Modify_Diagram releases demand of indirect elements; the rows below
// are then re-laid-out, which makes the "Update T_d consistently" step
// of the paper's pseudocode idempotent. The re-layout (relayout)
// re-scans only the windows whose scan can change and ends in exactly
// the state a full re-scan of those rows would leave.
//
// Instead of the dense [row][col] cell matrix of the reference engine
// (dense.go), the diagram stores per-row bitsets plus one shared
// occupancy column:
//
//   - alloc[r] marks the slots row r transmits in (ALLOCATED);
//   - req[r] marks the slots row r requests: the allocated slots plus
//     the slots it was preempted in (ALLOCATED ∪ WAITING);
//   - occ is the union of every row's alloc set. A slot claimed by one
//     row is BUSY for every row below, so at most one row allocates
//     any slot; occ therefore holds exactly "some higher-priority row
//     transmits here" while rows are scanned in priority order, and
//     doubles as the result row once the layout is complete (slot c is
//     FREE for the analysed stream iff occ does not contain c).
//
// This removes the per-slot BUSY fan-out to every lower row — the
// dense engine's O(rows) writes per allocated slot — and turns the
// scan itself into word-at-a-time bit arithmetic. Cell views (Row,
// ResultRow, Render) are derived on demand.
type Diagram struct {
	Elements []Element // sorted by non-increasing priority, ties by ID
	Horizon  int       // number of time slots (the paper's dtime)

	words  int      // 64-bit words per row bitset
	alloc  []bitset // [row]: ALLOCATED slots
	req    []bitset // [row]: ALLOCATED ∪ WAITING slots
	freed  []bitset // [row]: slots Modify released from the row since it was last re-laid; nil when none
	spare  []bitset // zeroed freed rows of re-laid rows, for release to reuse
	occ    bitset   // union of all alloc sets; the result row
	demand [][]int  // [row][window] remaining slots to claim

	rowOf    map[stream.ID]int // sparse-ID fallback; nil when rowBy covers the range
	rowBy    []int32           // dense ID -> row (-1 absent); nil when IDs are sparse
	morder   []int             // Modify's row order, fixed at construction; nil without indirect rows
	modified bool              // Modify has run; Grow is no longer window-local
	ar       *Arena            // scratch source; nil means plain heap allocation
}

// NewDiagram builds the initial timing diagram for the given HP
// elements over the given horizon, treating every element as direct
// (the paper's Generate_Init_Diagram). Call Modify to apply the
// indirect-element rule. NewDiagram returns an error for non-positive
// horizons or elements with non-positive period/length.
func NewDiagram(elems []Element, horizon int) (*Diagram, error) {
	sorted := make([]Element, len(elems))
	copy(sorted, elems)
	return newDiagram(sorted, horizon, nil)
}

// newDiagram is NewDiagram taking ownership of elems (sorted in place)
// and carving every buffer from ar when it is non-nil.
func newDiagram(elems []Element, horizon int, ar *Arena) (*Diagram, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("core: horizon %d must be positive", horizon)
	}
	sort.SliceStable(elems, func(i, j int) bool {
		if elems[i].Priority != elems[j].Priority {
			return elems[i].Priority > elems[j].Priority
		}
		return elems[i].ID < elems[j].ID
	})
	n := len(elems)
	d := &Diagram{
		Elements: elems,
		Horizon:  horizon,
		words:    wordsFor(horizon),
		alloc:    ar.grabSets(n),
		req:      ar.grabSets(n),
		occ:      ar.grabWords(wordsFor(horizon)),
		demand:   ar.grabRows(n),
		ar:       ar,
	}
	// Row lookup: a dense slice when the ID range is compact (always
	// the case for sets whose stream IDs are 0..n-1), a map otherwise.
	maxID, sparse := stream.ID(-1), false
	for i := range elems {
		if elems[i].ID < 0 {
			sparse = true
		}
		if elems[i].ID > maxID {
			maxID = elems[i].ID
		}
	}
	if sparse || int(maxID) > 4*n+64 {
		d.rowOf = make(map[stream.ID]int, n)
	} else if n > 0 {
		d.rowBy = ar.grabIDs(int(maxID) + 1)
		for i := range d.rowBy {
			d.rowBy[i] = -1
		}
	}
	for i := range elems {
		e := &elems[i]
		if e.Period <= 0 || e.Length <= 0 {
			return nil, fmt.Errorf("core: element %d has non-positive period/length (%d/%d)", e.ID, e.Period, e.Length)
		}
		if _, dup := d.rowIndex(e.ID); dup {
			return nil, fmt.Errorf("core: duplicate element %d", e.ID)
		}
		if d.rowBy != nil {
			d.rowBy[e.ID] = int32(i)
		} else {
			d.rowOf[e.ID] = i
		}
		d.alloc[i] = ar.grabWords(d.words)
		d.req[i] = ar.grabWords(d.words)
		windows := (horizon + e.Period - 1) / e.Period
		d.demand[i] = ar.grabInts(windows)
		for k := range d.demand[i] {
			d.demand[i][k] = e.Length
		}
	}
	for i := range elems {
		if elems[i].Mode == Indirect {
			// The order depends only on the rows and their Via
			// relation, both fixed now — compute it once so Modify on
			// every per-horizon clone reuses it.
			d.morder = d.modifyOrder()
			break
		}
	}
	d.layout()
	return d, nil
}

// rowIndex resolves an element ID to its row, preferring the dense
// slice and falling back to the map for sparse ID ranges.
func (d *Diagram) rowIndex(id stream.ID) (int, bool) {
	if d.rowBy != nil {
		if id < 0 || int(id) >= len(d.rowBy) {
			return 0, false
		}
		r := d.rowBy[id]
		return int(r), r >= 0
	}
	r, ok := d.rowOf[id]
	return r, ok
}

// layout is the initial scan (Generate_Init_Diagram): every row, in
// priority order, against the occupancy of the rows scanned before it.
func (d *Diagram) layout() {
	for r := range d.Elements {
		d.scanRow(r)
	}
}

// scanRow runs the paper's per-element greedy allocation for one row:
// within each period window the element claims its remaining demand
// from the first free slots and marks the slots it was preempted in as
// requested-but-waiting. A congested window keeps its full demand —
// when released capacity above compacts downward on a re-scan, the
// element legitimately transmits more. Only a window truncated by the
// horizon has its demand clamped to what was placed: the part beyond
// the horizon must not re-enter earlier slots on a re-scan, or the
// diagram would disagree with its own longer-horizon extension (the
// same bookkeeping is what lets Grow resume a truncated window
// exactly).
func (d *Diagram) scanRow(row int) {
	e := &d.Elements[row]
	for k, start := 0, 0; start < d.Horizon; k, start = k+1, start+e.Period {
		end, truncated := start+e.Period, false
		if end > d.Horizon {
			end, truncated = d.Horizon, true
		}
		got := d.claim(row, start, end, d.demand[row][k])
		if truncated {
			d.demand[row][k] = got
		}
	}
}

// claim is the word-level greedy scan over [from, to): the row claims
// up to want free slots — marking them in its alloc set and in the
// shared occupancy column — and marks every visited slot as requested.
// The visit stops at the slot that satisfies the demand; an unmet
// demand visits (and so requests) the whole range. Returns the number
// of slots claimed.
func (d *Diagram) claim(row, from, to, want int) int {
	if want <= 0 || from >= to {
		return 0
	}
	alloc, occ := d.alloc[row], d.occ
	claimed, stop := 0, to
	for w := from >> 6; claimed < want; w++ {
		lo := w << 6
		if lo >= to {
			break
		}
		free := ^occ[w] & spanMask(w, from, to)
		n := bits.OnesCount64(free)
		if claimed+n < want {
			alloc[w] |= free
			occ[w] |= free
			claimed += n
			continue
		}
		take := lowestN(free, want-claimed)
		alloc[w] |= take
		occ[w] |= take
		claimed = want
		stop = lo + 64 - bits.LeadingZeros64(take)
	}
	d.req[row].setRange(from, stop)
	return claimed
}

// relayout is "Update T_d consistently" after row released the
// allocated slots in delta: rows row+1.. end exactly as clearing and
// re-scanning each of them would leave them, but only the windows
// whose scan can change are re-scanned (docs/PERFORMANCE.md, "Modify
// re-lays only what changed").
//
// A window's scan depends only on its demand and on the occupancy by
// the rows above inside the range it visits, which is its request
// range. delta holds the slots where that occupancy differs from what
// the row being re-laid last scanned against; dsum marks its words
// that are non-zero. A row's window is re-scanned from its first
// trigger: a slot where delta meets its request range, or a slot the
// row released since its last scan of the window (which changed its
// demand or its request range). The window the horizon truncates is
// re-scanned even without a trigger: its demand was clamped to what it
// placed, so a re-scan stops requesting after its last claim. Each
// re-scan XORs the window's old alloc ⊕ new alloc into delta, exact
// because at most one row allocates any slot. occ is the occupancy
// before the release until the last row is done, and then takes delta.
func (d *Diagram) relayout(row int, delta, dsum bitset) {
	for x := row + 1; x < len(d.Elements); x++ {
		cut := d.Horizon % d.Elements[x].Period
		for pos := 0; pos < d.Horizon; {
			s := d.nextTrigger(x, pos, delta, dsum)
			if s < 0 {
				if cut == 0 {
					break
				}
				s = d.Horizon - cut
			}
			pos = d.rescan(x, s, delta, dsum)
		}
		if d.freed != nil && d.freed[x] != nil {
			// Every window holding a release was re-scanned, which
			// cleared it.
			d.spare = append(d.spare, d.freed[x])
			d.freed[x] = nil
		}
	}
	for sw, m := range dsum {
		for ; m != 0; m &= m - 1 {
			w := sw<<6 + bits.TrailingZeros64(m)
			d.occ[w] ^= delta[w]
			delta[w] = 0
		}
		dsum[sw] = 0
	}
}

// nextTrigger returns the first slot at or after pos where delta meets
// row x's request or x released a slot since its last scan, or -1.
// Releases are dense where a row has them, so a row with releases
// pending is walked word by word; otherwise dsum skips the quiet words.
func (d *Diagram) nextTrigger(x, pos int, delta, dsum bitset) int {
	req, w0 := d.req[x], pos>>6
	lead := ^uint64(0) << uint(pos&63) // word w0's bits at or after pos
	if d.freed != nil && d.freed[x] != nil {
		freed := d.freed[x]
		for w, m := w0, lead; w < d.words; w, m = w+1, ^uint64(0) {
			if v := (delta[w]&req[w] | freed[w]) & m; v != 0 {
				return w<<6 + bits.TrailingZeros64(v)
			}
		}
		return -1
	}
	for sw := w0 >> 6; sw < len(dsum); sw++ {
		m := dsum[sw]
		if sw == w0>>6 {
			m &= ^uint64(0) << uint(w0&63)
		}
		for ; m != 0; m &= m - 1 {
			w := sw<<6 + bits.TrailingZeros64(m)
			v := delta[w] & req[w]
			if w == w0 {
				v &= lead
			}
			if v != 0 {
				return w<<6 + bits.TrailingZeros64(v)
			}
		}
	}
	return -1
}

// rescan re-runs row x's scan of the window holding slot from, its
// first trigger, from that slot on, and returns the window's end. Up
// to from nothing the scan reads or demands has changed, so the claims
// before from stand, unless they already meet the window's demand
// (releases lowered it); the scan then starts over at the window's
// start. The old and the new request range are cleared and written
// word by word until both have ended, the row's releases in the window
// are forgotten, and the changed claims go into delta.
func (d *Diagram) rescan(x, from int, delta, dsum bitset) int {
	e := &d.Elements[x]
	k, start := from/e.Period, from-from%e.Period
	end := min(start+e.Period, d.Horizon)
	alloc, req := d.alloc[x], d.req[x]
	var freed bitset
	if d.freed != nil {
		freed = d.freed[x]
	}
	want, kept := d.demand[x][k], 0
	for w := start >> 6; w < wordsFor(from); w++ {
		kept += bits.OnesCount64(alloc[w] & spanMask(w, start, from))
	}
	if kept >= want {
		from, kept = start, 0
	}
	want -= kept
	claimed, inOld := 0, true
	for w := from >> 6; w < wordsFor(end) && (claimed < want || inOld); w++ {
		mask := spanMask(w, from, end)
		// Slots the row released since its last scan.
		var hole uint64
		if freed != nil {
			hole = freed[w] & mask
			freed[w] &^= mask
		}
		// The old request range, holes filled, is contiguous from
		// start: it continues past this word iff it covers the rest of
		// the word.
		oldA, oldR := alloc[w]&mask, req[w]&mask|hole
		inOld = oldR == mask
		var newA, newR uint64
		if claimed < want {
			// In the old request range the row saw the slots it waited
			// in as occupied, and delta says what changed since. A hole
			// does not say whether it was waited in, so there, and past
			// the old range, the occupancy above is read.
			exact := oldR &^ hole
			above := (oldR&^oldA ^ delta[w]) & exact
			if rest := mask &^ exact; rest != 0 {
				above |= d.aboveWord(x, w, delta) & rest
			}
			free := ^above & mask
			if n := bits.OnesCount64(free); claimed+n < want {
				newA, newR = free, mask
				claimed += n
			} else {
				newA = lowestN(free, want-claimed)
				newR = mask & (^uint64(0) >> uint(bits.LeadingZeros64(newA)))
				claimed = want
			}
		}
		alloc[w] = alloc[w]&^mask | newA
		req[w] = req[w]&^mask | newR
		if ch := oldA ^ newA; ch != 0 {
			// A slot released above and claimed here is no change for
			// the rows below: keep dsum exact so they skip it.
			if delta[w] ^= ch; delta[w] != 0 {
				dsum[w>>6] |= 1 << uint(w&63)
			} else {
				dsum[w>>6] &^= 1 << uint(w&63)
			}
		}
	}
	if end < start+e.Period {
		d.demand[x][k] = kept + claimed
	}
	return start + e.Period
}

// aboveWord returns word w of the occupancy by the rows above x as they
// now stand. Rows above x are final, and the rows from x down still
// hold what they held before the release, so either side gives it:
// the union of the rows above, or the pre-release occupancy less the
// rows from x down, which is what x last scanned against, corrected by
// delta. Whichever side has fewer rows is read. The second side needs
// occ to be the pre-release occupancy: were it updated row by row, a
// slot a row above newly claims while a row below still holds it would
// be removed with the rows below.
func (d *Diagram) aboveWord(x, w int, delta bitset) uint64 {
	var u uint64
	if n := len(d.Elements); 2*x <= n {
		for r := 0; r < x; r++ {
			u |= d.alloc[r][w]
		}
		return u
	}
	for r := x; r < len(d.Elements); r++ {
		u |= d.alloc[r][w]
	}
	return (d.occ[w] &^ u) ^ delta[w]
}

// Grow extends the horizon of an unmodified diagram in place, laying
// out only the new columns. The construction is window-local: columns
// of a window are never affected by later columns, so the columns
// below the old horizon are already final. Only the window truncated
// by the old horizon resumes its scan — its clamped demand records
// exactly how many slots it placed, so the remainder of the element's
// demand picks up at the old horizon — and the fully-new windows are
// laid out from scratch. The result is byte-identical to building the
// diagram at newHorizon from scratch (the differential tests pin
// this). Growing a modified diagram is an error: Modify's releases are
// not window-local, so both users — CalUSearchCap and CalU's early exit
// (calUBounded) — grow the unmodified diagram and apply Modify to a
// clone per horizon.
func (d *Diagram) Grow(newHorizon int) error {
	if d.modified {
		return fmt.Errorf("core: cannot grow a modified diagram")
	}
	if newHorizon < d.Horizon {
		return fmt.Errorf("core: cannot shrink horizon %d to %d", d.Horizon, newHorizon)
	}
	if newHorizon == d.Horizon {
		return nil
	}
	oldH := d.Horizon
	d.Horizon = newHorizon
	d.words = wordsFor(newHorizon)
	d.occ = d.ar.regrowWords(d.occ, d.words)
	for r := range d.Elements {
		d.alloc[r] = d.ar.regrowWords(d.alloc[r], d.words)
		d.req[r] = d.ar.regrowWords(d.req[r], d.words)
	}
	// Scanning rows in priority order keeps the layout invariant: the
	// new columns of occ hold exactly the rows already scanned, and no
	// scan below touches a column before the old horizon.
	for r := range d.Elements {
		e := &d.Elements[r]
		oldWin := (oldH + e.Period - 1) / e.Period
		newWin := (newHorizon + e.Period - 1) / e.Period
		dem := d.ar.regrowInts(d.demand[r], newWin)
		for k := oldWin; k < newWin; k++ {
			dem[k] = e.Length
		}
		d.demand[r] = dem
		kb := oldWin - 1
		//rtwlint:ignore intoverflow -- kb = ceil(oldH/Period)-1, so kb*Period < oldH <= MaxSearchHorizon; the window-count bound is a division invariant the intraprocedural interval domain cannot relate
		if start := kb * e.Period; start+e.Period > oldH {
			// Resume the truncated window: it placed dem[kb] of the
			// element's Length slots before the old horizon cut it off.
			end, trunc := start+e.Period, false
			if end > newHorizon {
				end, trunc = newHorizon, true
			}
			got := dem[kb] + d.claim(r, oldH, end, e.Length-dem[kb])
			if trunc {
				dem[kb] = got
			} else {
				dem[kb] = e.Length
			}
		}
		for k := kb + 1; k < newWin; k++ {
			//rtwlint:ignore intoverflow -- k < newWin = ceil(newHorizon/Period), so k*Period < newHorizon <= MaxSearchHorizon; same division invariant as above
			start := k * e.Period
			end, trunc := start+e.Period, false
			if end > newHorizon {
				end, trunc = newHorizon, true
			}
			got := d.claim(r, start, end, dem[k])
			if trunc {
				dem[k] = got
			}
		}
	}
	return nil
}

// clone returns an independent copy of the diagram, carving its
// buffers from ar. The Elements and row-index structures are shared
// (they are immutable after construction); the slot and demand state
// is deep-copied. CalUSearchCap and calUBounded clone the incrementally
// grown initial diagram before each Modify so the grown original stays
// unmodified.
func (d *Diagram) clone(ar *Arena) *Diagram {
	n := len(d.Elements)
	c := &Diagram{
		Elements: d.Elements,
		Horizon:  d.Horizon,
		words:    d.words,
		alloc:    ar.grabSets(n),
		req:      ar.grabSets(n),
		occ:      ar.grabWords(d.words),
		demand:   ar.grabRows(n),
		rowOf:    d.rowOf,
		rowBy:    d.rowBy,
		morder:   d.morder,
		modified: d.modified,
		ar:       ar,
	}
	copy(c.occ, d.occ)
	for r := 0; r < n; r++ {
		c.alloc[r] = ar.grabWords(d.words)
		copy(c.alloc[r], d.alloc[r])
		c.req[r] = ar.grabWords(d.words)
		copy(c.req[r], d.req[r])
		c.demand[r] = ar.grabInts(len(d.demand[r]))
		copy(c.demand[r], d.demand[r])
	}
	if d.freed != nil {
		c.freed = ar.grabSets(n)
		for r, f := range d.freed {
			if f != nil {
				c.freed[r] = ar.grabWords(d.words)
				copy(c.freed[r], f)
			}
		}
	}
	return c
}

// rowCells derives the dense cell view of one element row. above must
// hold the union of the alloc sets of rows 0..row-1; out must have
// Horizon capacity.
func (d *Diagram) rowCells(row int, above bitset, out []Cell) {
	var freed bitset
	if d.freed != nil {
		freed = d.freed[row]
	}
	alloc, req := d.alloc[row], d.req[row]
	for c := 0; c < d.Horizon; c++ {
		switch {
		case alloc.get(c):
			out[c] = Allocated
		case req.get(c):
			out[c] = Waiting
		case freed != nil && freed.get(c):
			// Modify released the slot; the dense engine shows it
			// FREE even where a higher row occupies it.
			out[c] = Free
		case above.get(c):
			out[c] = Busy
		default:
			out[c] = Free
		}
	}
}

// Row returns a copy of the cells of the element with the given ID.
// The second result is false if the ID is not an element of the diagram.
func (d *Diagram) Row(id stream.ID) ([]Cell, bool) {
	row, ok := d.rowIndex(id)
	if !ok {
		return nil, false
	}
	above := make(bitset, d.words)
	for r := 0; r < row; r++ {
		d.alloc[r].orInto(above)
	}
	out := make([]Cell, d.Horizon)
	d.rowCells(row, above, out)
	return out, true
}

// ResultRow returns a copy of the result row: the slot availability
// seen by the analysed stream.
func (d *Diagram) ResultRow() []Cell {
	out := make([]Cell, d.Horizon)
	for c := 0; c < d.Horizon; c++ {
		if d.occ.get(c) {
			out[c] = Busy
		}
	}
	return out
}

// Modify applies the paper's Modify_Diagram: for every INDIRECT
// element, release each slot the element holds (ALLOCATED or WAITING)
// while none of its intermediate streams requests it (i.e. every
// intermediate row is FREE or BUSY in that slot) — if no intermediate
// wants the slot, the indirect element cannot be delaying the analysed
// stream there. Releasing an allocated slot removes one unit of the
// element's demand in that period window; the diagram is then re-laid
// out so freed capacity compacts downward ("Update T_d consistently").
//
// Elements are processed in the order of the paper's breadth-first
// traversal of the transposed blocking dependency graph: intermediates
// before the elements that block through them (ascending chain depth),
// so that each element's release test sees its intermediates' final
// demand.
//
// In the bitset engine the release test is one word expression:
// candidates are the row's requested slots, the covering set is the
// union of the via rows' requested slots, and everything in the first
// but not the second is released at once.
func (d *Diagram) Modify() { d.modify(false) }

// modify is Modify. With certify set it also returns the frontier F:
// slots [0, F) of the modified diagram, result row included, equal
// those of the same elements modified at any longer horizon.
// docs/PERFORMANCE.md ("Cal_U stops at the bound") proves the
// bookkeeping sound. Without certify the bookkeeping is skipped, so
// Modify costs what it always cost, and the result means nothing.
func (d *Diagram) modify(certify bool) int {
	d.modified = true
	if len(d.morder) == 0 {
		// Nothing is released: the diagram is a prefix of every
		// longer one.
		return d.Horizon
	}
	var f int
	var pend []int // [row]: first slot a re-scan could change; Horizon when none
	if certify {
		f = cutFrontier(d.Elements, d.Horizon)
		pend = d.ar.grabInts(len(d.Elements))
		for r := range pend {
			pend[r] = d.Horizon
		}
	}
	viaRows := d.ar.grabInts(len(d.Elements))[:0]
	var delta, dsum bitset // relayout's scratch, carved on the first allocated release
	for _, row := range d.morder {
		e := &d.Elements[row]
		viaRows = viaRows[:0]
		for _, v := range e.Via {
			if vr, ok := d.rowIndex(v); ok {
				viaRows = append(viaRows, vr)
			}
		}
		changed := false
		first, changedBelowF := d.Horizon, false
		req, alloc := d.req[row], d.alloc[row]
		for w := 0; w < d.words; w++ {
			cand := req[w]
			if cand == 0 {
				continue
			}
			var covered uint64
			for _, vr := range viaRows {
				covered |= d.req[vr][w]
			}
			rel := cand &^ covered
			if rel == 0 {
				continue
			}
			if certify {
				first = min(first, w<<6+bits.TrailingZeros64(rel))
				if ra := rel & alloc[w]; ra != 0 && w<<6+bits.TrailingZeros64(ra) < f {
					changedBelowF = true
				}
			}
			req[w] &^= rel
			d.release(row, w, rel)
			if relAlloc := rel & alloc[w]; relAlloc != 0 {
				alloc[w] &^= relAlloc
				if delta == nil {
					delta, dsum = d.ar.grabWords(d.words), d.ar.grabWords(wordsFor(d.words))
				}
				delta[w] = relAlloc
				dsum[w>>6] |= 1 << uint(w&63)
				for b := relAlloc; b != 0; b &= b - 1 {
					col := w<<6 + bits.TrailingZeros64(b)
					d.demand[row][col/e.Period]--
				}
				changed = true
			}
		}
		if certify {
			if !changedBelowF {
				// Releases at or beyond F alone decide whether the
				// rows below are re-scanned, and a longer horizon may
				// decide the other way: certify only what a re-scan of
				// each of them reproduces.
				for _, p := range pend[row+1:] {
					f = min(f, p)
				}
			}
			// A release at or beyond F changes the demand of the
			// window of this row that straddles F.
			f -= f % e.Period
			if first < d.Horizon {
				pend[row] = d.rescanFrontier(row, first)
			}
		}
		if changed {
			// The releasing row's surviving slots stay in place (in
			// Figure 9 the kept instances of M0 and M1 do not move);
			// only the rows below are re-laid-out over the released
			// capacity ("Update T_d consistently" — M3's instance is
			// compacted). The reduced demand takes effect if a later,
			// higher-priority release re-scans this row.
			d.relayout(row, delta, dsum)
			for r := row + 1; r < len(pend); r++ {
				pend[r] = d.Horizon
			}
		}
	}
	return f
}

// release records that row released the slots rel of word w. A
// released slot reads FREE in the row's view: a released WAITING slot
// stays occupied by a higher row, and no row above holds a released
// ALLOCATED one. The record lasts until the row is next re-laid, so it
// also tells relayout which windows lost demand or request.
func (d *Diagram) release(row, w int, rel uint64) {
	if d.freed == nil {
		n := len(d.Elements)
		d.freed, d.spare = d.ar.grabSets(n), d.ar.grabSets(n)[:0]
	}
	if d.freed[row] == nil {
		if k := len(d.spare) - 1; k >= 0 {
			d.freed[row], d.spare = d.spare[k], d.spare[:k]
		} else {
			d.freed[row] = d.ar.grabWords(d.words)
		}
	}
	d.freed[row][w] |= rel
}

// cutFrontier is the frontier of an unmodified diagram of elems laid
// out at horizon h: the earliest start of a period window h cuts
// short. Below it the diagram equals the prefix of every longer one,
// and every window starting below it carries its full demand at every
// horizon.
func cutFrontier(elems []Element, h int) int {
	f := h
	for i := range elems {
		f = min(f, h-h%elems[i].Period)
	}
	return f
}

// rescanFrontier is the first slot at which re-scanning row could
// change its alloc or req set, given that p is the first slot the row
// released since its last scan. That scan visited p, so it claimed
// every free slot between the start of p's window and p and requested
// all of them, and the window's remaining demand never falls below
// those claims. A re-scan makes the same claims and, when the demand
// is larger, goes on to p: everything before p is reproduced. When the
// releases emptied the rest of the window, the re-scan's request ends
// after its last claim before p.
func (d *Diagram) rescanFrontier(row, p int) int {
	t := d.Elements[row].Period
	start, alloc := p-p%t, d.alloc[row]
	last, claims := start-1, 0
	for c := start; c < p; c++ {
		if alloc.get(c) {
			last, claims = c, claims+1
		}
	}
	if d.demand[row][p/t] > claims {
		return p
	}
	return last + 1
}

// modifyOrder returns the rows of the indirect elements in ascending
// blocking-chain depth (an element's intermediates are processed before
// the element itself), ties broken lower-priority-row first. Depth is
// computed from the Via relation with a cycle guard: onPath marks the
// rows of the current recursion path (set on entry, cleared on exit),
// playing the role of the reference implementation's per-root seen map.
func (d *Diagram) modifyOrder() []int {
	depth := d.ar.grabInts(len(d.Elements))
	onPath := d.ar.grabIDs(len(d.Elements))
	var visit func(row int) int
	visit = func(row int) int {
		if depth[row] != 0 {
			return depth[row]
		}
		if onPath[row] != 0 {
			return 1 // cycle guard: treat as direct depth
		}
		onPath[row] = 1
		e := &d.Elements[row]
		dd := 1
		if e.Mode == Indirect {
			for _, v := range e.Via {
				if vr, ok := d.rowIndex(v); ok {
					if vd := visit(vr) + 1; vd > dd {
						dd = vd
					}
				}
			}
			if dd == 1 {
				dd = 2 // indirect with no resolvable vias still ranks after directs
			}
		}
		onPath[row] = 0
		depth[row] = dd
		return dd
	}
	for r := range d.Elements {
		visit(r)
	}
	var order []int
	for r := range d.Elements {
		if d.Elements[r].Mode == Indirect {
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

// DelayUpperBound scans the result row and returns the 1-indexed time
// at which the accumulated FREE slots reach required — the paper's
// Cal_U scan, one popcount per word. It returns -1 if the horizon does
// not contain enough free slots (the demand cannot be satisfied by the
// deadline). A required value of zero returns 0.
func (d *Diagram) DelayUpperBound(required int) int {
	if required <= 0 {
		return 0
	}
	got := 0
	for w := 0; w < d.words; w++ {
		free := ^d.occ[w]
		if hi := (w + 1) << 6; hi > d.Horizon {
			free &= ^uint64(0) >> uint(hi-d.Horizon)
		}
		n := bits.OnesCount64(free)
		if got+n >= required {
			return w<<6 + nthSet(free, required-got) + 1
		}
		got += n
	}
	return -1
}

// FreeSlots returns the number of FREE slots in the result row up to
// and including the 1-indexed time t (clamped to the horizon).
func (d *Diagram) FreeSlots(t int) int {
	if t > d.Horizon {
		t = d.Horizon
	}
	got := 0
	for w := 0; w<<6 < t; w++ {
		free := ^d.occ[w]
		if hi := (w + 1) << 6; hi > t {
			free &= ^uint64(0) >> uint(hi-t)
		}
		got += bits.OnesCount64(free)
	}
	return got
}
