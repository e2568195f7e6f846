package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// randElements is a quick.Generator-style helper: a valid random HP
// element list (unique IDs, positive periods/lengths, optional indirect
// elements whose vias point at other listed elements).
type randElements []Element

// Generate implements quick.Generator.
func (randElements) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(6)
	elems := make([]Element, n)
	for i := range elems {
		elems[i] = Element{
			ID:       stream.ID(i),
			Priority: n - i,
			Period:   2 + r.Intn(20),
			Length:   1 + r.Intn(6),
			Mode:     Direct,
		}
	}
	// Mark a random suffix indirect with vias into the remaining set.
	for i := 0; i < n-1; i++ {
		if r.Intn(2) == 0 {
			elems[i].Mode = Indirect
			nvia := 1 + r.Intn(2)
			for v := 0; v < nvia; v++ {
				via := stream.ID(i + 1 + r.Intn(n-i-1))
				elems[i].Via = append(elems[i].Via, via)
			}
		}
	}
	return reflect.ValueOf(randElements(elems))
}

// TestQuickSlotConservation: in the initial diagram every element's
// allocated slots per window never exceed its demand, and each column
// is allocated by at most one row.
func TestQuickSlotConservation(t *testing.T) {
	f := func(re randElements) bool {
		elems := []Element(re)
		for i := range elems {
			elems[i].Mode = Direct
			elems[i].Via = nil
		}
		d, err := NewDiagram(elems, 120)
		if err != nil {
			return false
		}
		// At most one ALLOCATED per column across rows.
		for col := 0; col < 120; col++ {
			owners := 0
			for _, e := range elems {
				row, _ := d.Row(e.ID)
				if row[col] == Allocated {
					owners++
				}
			}
			if owners > 1 {
				return false
			}
		}
		// Per-window allocation <= Length.
		for _, e := range elems {
			row, _ := d.Row(e.ID)
			for start := 0; start < 120; start += e.Period {
				got := 0
				for l := 0; l < e.Period && start+l < 120; l++ {
					if row[start+l] == Allocated {
						got++
					}
				}
				if got > e.Length {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickModifyNeverIncreasesBound: applying Modify can only release
// capacity, so the bound never grows, for any required latency.
func TestQuickModifyNeverIncreasesBound(t *testing.T) {
	f := func(re randElements, reqRaw uint8) bool {
		elems := []Element(re)
		req := 1 + int(reqRaw%30)
		before, err := NewDiagram(elems, 200)
		if err != nil {
			return false
		}
		uBefore := before.DelayUpperBound(req)
		after, err := NewDiagram(elems, 200)
		if err != nil {
			return false
		}
		after.Modify()
		uAfter := after.DelayUpperBound(req)
		if uBefore == -1 {
			return true // not found before; after may or may not find it
		}
		return uAfter != -1 && uAfter <= uBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickModifyMonotone: Modify is a single pass, as in the paper's
// pseudocode, and not a fixpoint. A second pass can free fewer slots
// than the first (TestModifyPassesPinned keeps two such inputs), but no
// pass frees fewer than the initial diagram has: after one and after
// two passes every prefix of the result row holds at least as many
// FREE slots as before Modify, so the bound never rises above the
// initial one.
func TestQuickModifyMonotone(t *testing.T) {
	const horizon = 150
	f := func(re randElements, reqRaw uint8) bool {
		req := 1 + int(reqRaw%30)
		d, err := NewDiagram([]Element(re), horizon)
		if err != nil {
			return false
		}
		free0 := make([]int, horizon+1)
		for h := range free0 {
			free0[h] = d.FreeSlots(h)
		}
		u0 := d.DelayUpperBound(req)
		for pass := 1; pass <= 2; pass++ {
			d.Modify()
			for h := 1; h <= horizon; h++ {
				if d.FreeSlots(h) < free0[h] {
					return false
				}
			}
			if u := d.DelayUpperBound(req); u0 != -1 && (u == -1 || u > u0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestModifyPassesPinned pins the result row's FREE count at horizon
// 150 before Modify and after one and two passes, on two inputs where
// the second pass frees fewer slots than the first. A change to Modify
// that moves any of these counts shows here.
func TestModifyPassesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		elems []Element
		free  [3]int // FREE(150) after zero, one and two passes
	}{
		{"four-rows", []Element{
			{ID: 0, Priority: 4, Period: 12, Length: 4, Mode: Direct},
			{ID: 1, Priority: 3, Period: 16, Length: 2, Mode: Indirect, Via: []stream.ID{3, 2}},
			{ID: 2, Priority: 2, Period: 7, Length: 3, Mode: Indirect, Via: []stream.ID{3}},
			{ID: 3, Priority: 1, Period: 4, Length: 1, Mode: Direct},
		}, [3]int{6, 10, 9}},
		{"six-rows", []Element{
			{ID: 0, Priority: 6, Period: 13, Length: 2, Mode: Direct},
			{ID: 1, Priority: 5, Period: 11, Length: 2, Mode: Direct},
			{ID: 2, Priority: 4, Period: 20, Length: 5, Mode: Direct},
			{ID: 3, Priority: 3, Period: 16, Length: 1, Mode: Indirect, Via: []stream.ID{5, 4}},
			{ID: 4, Priority: 2, Period: 3, Length: 2, Mode: Indirect, Via: []stream.ID{5, 5}},
			{ID: 5, Priority: 1, Period: 12, Length: 1, Mode: Direct},
		}, [3]int{0, 5, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDiagram(tc.elems, 150)
			if err != nil {
				t.Fatal(err)
			}
			var got [3]int
			for pass := range got {
				if pass > 0 {
					d.Modify()
				}
				got[pass] = d.FreeSlots(150)
			}
			if got != tc.free {
				t.Errorf("FREE(150) after 0, 1, 2 Modify passes = %v, want %v", got, tc.free)
			}
		})
	}
}

// TestQuickBoundMonotoneInRequired: U is non-decreasing in the required
// number of free slots.
func TestQuickBoundMonotoneInRequired(t *testing.T) {
	f := func(re randElements) bool {
		d, err := NewDiagram([]Element(re), 200)
		if err != nil {
			return false
		}
		d.Modify()
		prev := 0
		for req := 1; req <= 20; req++ {
			u := d.DelayUpperBound(req)
			if u == -1 {
				return true // once unbounded, larger req is unbounded too
			}
			if u < prev {
				return false
			}
			prev = u
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickHorizonExtensionConsistent: the initial (pre-Modify)
// construction is window-local, so extending the horizon never changes
// ANY column below the short horizon — the invariant Grow and the
// incremental CalUSearchCap build on. After Modify the same holds for
// sets without indirect elements (Modify is then a no-op). It does NOT
// hold for modified diagrams with indirect elements: a window
// truncated by the horizon places — and therefore releases — demand
// differently from its complete version, and the re-layout after a
// release compacts rows below across the whole horizon, so the
// divergence is not confined to any margin of the boundary (which is
// why Grow refuses modified diagrams and CalUSearchCap re-runs Modify
// per horizon on a clone, and why its stability margin is best-effort
// for the early exit rather than a guarantee).
func TestQuickHorizonExtensionConsistent(t *testing.T) {
	f := func(re randElements) bool {
		elems := []Element(re)
		const shortH = 120
		short, err := NewDiagram(elems, shortH)
		if err != nil {
			return false
		}
		long, err := NewDiagram(elems, 2*shortH)
		if err != nil {
			return false
		}
		a, b := short.ResultRow(), long.ResultRow()
		for i := 0; i < shortH; i++ {
			if a[i] != b[i] {
				return false
			}
		}
		// Direct-only variant: the prefix stays stable through Modify.
		direct := make([]Element, len(elems))
		copy(direct, elems)
		for i := range direct {
			direct[i].Mode = Direct
			direct[i].Via = nil
		}
		short, err = NewDiagram(direct, shortH)
		if err != nil {
			return false
		}
		short.Modify()
		long, err = NewDiagram(direct, 2*shortH)
		if err != nil {
			return false
		}
		long.Modify()
		a, b = short.ResultRow(), long.ResultRow()
		for i := 0; i < shortH; i++ {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickHPSetContainsAllOverlapping: every higher-or-equal-priority
// stream with an overlapping path appears as a DIRECT element.
func TestQuickHPSetContainsAllOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		set := randomMeshSet(t, rng, 3+rng.Intn(8))
		hps := BuildHPSets(set)
		for _, sj := range set.Streams {
			for _, sk := range set.Streams {
				if sk.ID == sj.ID || sk.Priority < sj.Priority {
					continue
				}
				if sk.Path.Overlaps(sj.Path) {
					e := hps[sj.ID].Get(sk.ID)
					if e == nil || e.Mode != Direct {
						t.Fatalf("trial %d: overlapping %d missing/indirect in HP_%d: %s",
							trial, sk.ID, sj.ID, hps[sj.ID].String())
					}
				}
			}
		}
	}
}

// TestQuickHPSetViaAreMembers: every via of an indirect element is
// itself an element of the same HP set.
func TestQuickHPSetViaAreMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		set := randomMeshSet(t, rng, 3+rng.Intn(10))
		for _, hp := range BuildHPSets(set) {
			for _, e := range hp.Elems {
				for _, v := range e.Via {
					if hp.Get(v) == nil {
						t.Fatalf("trial %d: via %d of %d not in HP_%d: %s", trial, v, e.ID, hp.Owner, hp.String())
					}
					if v == hp.Owner {
						t.Fatalf("trial %d: owner listed as its own intermediate: %s", trial, hp.String())
					}
				}
			}
		}
	}
}
