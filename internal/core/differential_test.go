package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// This file holds the differential test battery between the optimized
// bitset engine (diagram.go) and the dense reference engine (dense.go).
// The dense engine is the spec; every observable of the optimized
// engine — every element row, the result row, the delay upper bound at
// every required count, the free-slot prefix counts — must be
// byte-identical, before Modify, after Modify, and after a second
// Modify. See also FuzzDiagramDifferential in fuzz_test.go, which runs
// the same comparison on fuzzer-decoded inputs.

// randDiffElems generates a random valid HP element list: unique IDs,
// positive periods/lengths, a random subset indirect with vias into
// the higher-ID (lower-priority) remainder, and occasional priority
// ties to exercise the ID tie-break of the row sort.
func randDiffElems(rng *rand.Rand) []Element {
	n := 1 + rng.Intn(7)
	elems := make([]Element, n)
	for i := range elems {
		pri := n - i
		if rng.Intn(4) == 0 { // priority ties
			pri = 1 + rng.Intn(2)
		}
		elems[i] = Element{
			ID:       stream.ID(i),
			Priority: pri,
			Period:   2 + rng.Intn(24),
			Length:   1 + rng.Intn(7),
			Mode:     Direct,
		}
	}
	for i := 0; i < n-1; i++ {
		if rng.Intn(2) == 0 {
			elems[i].Mode = Indirect
			for v := 0; v < 1+rng.Intn(2); v++ {
				elems[i].Via = append(elems[i].Via, stream.ID(i+1+rng.Intn(n-i-1)))
			}
		}
	}
	return elems
}

// buildBoth constructs the optimized diagram (through an arena, so the
// differential battery also exercises the pooled-allocation path) and
// the dense reference from the same element list.
func buildBoth(t *testing.T, ar *Arena, elems []Element, horizon int) (*Diagram, *denseDiagram) {
	t.Helper()
	own := make([]Element, len(elems))
	copy(own, elems)
	opt, err := newDiagram(own, horizon, ar)
	if err != nil {
		t.Fatalf("newDiagram(%v, %d): %v", elems, horizon, err)
	}
	ref, err := newDenseDiagram(elems, horizon)
	if err != nil {
		t.Fatalf("newDenseDiagram(%v, %d): %v", elems, horizon, err)
	}
	return opt, ref
}

// assertDiagramsEqual compares every observable of the two engines.
func assertDiagramsEqual(t *testing.T, opt *Diagram, ref *denseDiagram, elems []Element, label string) {
	t.Helper()
	horizon := ref.Horizon
	if opt.Horizon != horizon {
		t.Fatalf("%s: horizon %d vs %d", label, opt.Horizon, horizon)
	}
	for _, e := range elems {
		got, ok1 := opt.Row(e.ID)
		want, ok2 := ref.Row(e.ID)
		if ok1 != ok2 {
			t.Fatalf("%s: Row(%d) presence %v vs %v", label, e.ID, ok1, ok2)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("%s: elements %v\nrow %d col %d: optimized %v, dense %v\noptimized:\n%s",
					label, elems, e.ID, c, got[c], want[c], opt.Render(0))
			}
		}
	}
	gotRes, wantRes := opt.ResultRow(), ref.ResultRow()
	for c := range wantRes {
		if gotRes[c] != wantRes[c] {
			t.Fatalf("%s: elements %v\nresult row col %d: optimized %v, dense %v",
				label, elems, c, gotRes[c], wantRes[c])
		}
	}
	for req := 1; req <= horizon+1; req += 1 + horizon/16 {
		if g, w := opt.DelayUpperBound(req), ref.DelayUpperBound(req); g != w {
			t.Fatalf("%s: elements %v\nDelayUpperBound(%d): optimized %d, dense %d",
				label, elems, req, g, w)
		}
	}
	for _, tt := range []int{1, horizon / 3, horizon / 2, horizon} {
		if tt < 1 {
			continue
		}
		if g, w := opt.FreeSlots(tt), ref.FreeSlots(tt); g != w {
			t.Fatalf("%s: elements %v\nFreeSlots(%d): optimized %d, dense %d",
				label, elems, tt, g, w)
		}
	}
}

// TestDifferentialThousandSets is the acceptance-criterion battery:
// on over a thousand seeded-random stream (element) sets, the
// optimized engine's ResultRow, every element Row and DelayUpperBound
// are byte-identical to the dense reference — initially, after Modify,
// and after a second Modify (Modify is not a fixpoint, so the second
// application checks a distinct state; see TestQuickModifyMonotone).
func TestDifferentialThousandSets(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	var ar Arena
	sets := 1200
	if testing.Short() {
		sets = 200
	}
	for trial := 0; trial < sets; trial++ {
		elems := randDiffElems(rng)
		horizon := 20 + rng.Intn(230)
		ar.Reset()
		checkModifyDifferential(t, &ar, elems, horizon, fmt.Sprintf("set %d", trial))
	}
}

// randWideElems draws the shape Modify's incremental re-layout is built
// for and randDiffElems never reaches: 8–40 elements over a few
// priority levels (so most rows tie and sort by ID), lengths 1–40,
// periods mostly long enough (up to 1,500) that one window spans many
// words, an eighth of them short and hot, and indirect elements whose
// one or two vias chain into the rows just below them. The load stays
// near one, so vias leave slots uncovered and one release cascades
// through many rows (about 10 re-layouts of 15 rows per set).
func randWideElems(rng *rand.Rand) []Element {
	n := 8 + rng.Intn(33)
	levels := 1 + rng.Intn(4)
	elems := make([]Element, n)
	for i := range elems {
		length := 1 + rng.Intn(40)
		period := min(1500, length*(n/2+rng.Intn(3*n)))
		if rng.Intn(8) == 0 {
			period = 2 + rng.Intn(89)
		}
		elems[i] = Element{
			ID:       stream.ID(i),
			Priority: levels - i*levels/n,
			Period:   period,
			Length:   length,
		}
	}
	for i := 0; i < n-1; i++ {
		if rng.Intn(4) != 0 {
			elems[i].Mode = Indirect
			for v := 0; v < 1+rng.Intn(2); v++ {
				elems[i].Via = append(elems[i].Via, stream.ID(i+1+rng.Intn(min(n-i-1, 8))))
			}
		}
	}
	return elems
}

// checkModifyDifferential compares the two engines on elems at the
// horizon: initially, after Modify and after a second Modify.
func checkModifyDifferential(t *testing.T, ar *Arena, elems []Element, horizon int, label string) {
	t.Helper()
	opt, ref := buildBoth(t, ar, elems, horizon)
	assertDiagramsEqual(t, opt, ref, elems, label+" initial")
	opt.Modify()
	ref.Modify()
	assertDiagramsEqual(t, opt, ref, elems, label+" modified")
	opt.Modify()
	ref.Modify()
	assertDiagramsEqual(t, opt, ref, elems, label+" modified twice")
}

// TestDifferentialWideWindows runs the dense oracle on randWideElems
// at horizons up to 8,192 slots.
func TestDifferentialWideWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var ar Arena
	sets := 300
	if testing.Short() {
		sets = 40
	}
	for trial := 0; trial < sets; trial++ {
		elems := randWideElems(rng)
		horizon := 256 + rng.Intn(7937)
		ar.Reset()
		checkModifyDifferential(t, &ar, elems, horizon, fmt.Sprintf("trial %d (horizon %d)", trial, horizon))
	}
}

// CheckHPSetDifferential runs checkModifyDifferential on the diagram
// rows of stream id's HP set in a. It is exported for the external
// test package, whose §5 pools come from workload, which imports core.
func CheckHPSetDifferential(t *testing.T, a *Analyzer, id stream.ID, horizon int) {
	t.Helper()
	elems := a.elements(id, nil)
	checkModifyDifferential(t, nil, elems, horizon, fmt.Sprintf("stream %d", id))
}

// TestDifferentialGrowMatchesFresh: growing the optimized diagram
// through several horizon doublings yields exactly the diagram a fresh
// dense build at the final horizon produces — the invariant the
// incremental CalUSearchCap rests on. Grow is only defined pre-Modify
// (it refuses modified diagrams), so the comparison is on initial
// diagrams; the clone-then-Modify path on a grown diagram is checked
// afterwards against a fresh dense build plus Modify.
func TestDifferentialGrowMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var ar Arena
	for trial := 0; trial < 300; trial++ {
		elems := randDiffElems(rng)
		h := 10 + rng.Intn(60)
		ar.Reset()
		own := make([]Element, len(elems))
		copy(own, elems)
		opt, err := newDiagram(own, h, &ar)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			h *= 2
			if err := opt.Grow(h); err != nil {
				t.Fatalf("Grow(%d): %v", h, err)
			}
		}
		ref, err := newDenseDiagram(elems, h)
		if err != nil {
			t.Fatal(err)
		}
		assertDiagramsEqual(t, opt, ref, elems, "grown 8x")
		mod := opt.clone(&ar)
		mod.Modify()
		ref.Modify()
		assertDiagramsEqual(t, mod, ref, elems, "grown 8x + clone + Modify")
		// The clone's Modify must not have disturbed the original.
		refInit, err := newDenseDiagram(elems, h)
		if err != nil {
			t.Fatal(err)
		}
		assertDiagramsEqual(t, opt, refInit, elems, "original after clone Modify")
	}
}

// TestGrowRefusesModified: Modify releases are not window-local, so a
// modified diagram cannot be grown in place.
func TestGrowRefusesModified(t *testing.T) {
	elems := []Element{
		{ID: 0, Priority: 2, Period: 5, Length: 2, Mode: Indirect, Via: []stream.ID{1}},
		{ID: 1, Priority: 1, Period: 7, Length: 3, Mode: Direct},
	}
	d, err := NewDiagram(elems, 40)
	if err != nil {
		t.Fatal(err)
	}
	d.Modify()
	if err := d.Grow(80); err == nil {
		t.Fatal("Grow accepted a modified diagram")
	}
	if err := d.Grow(80); err == nil {
		t.Fatal("Grow accepted a modified diagram on retry")
	}
}

// TestGrowRefusesShrink: the horizon can only grow.
func TestGrowRefusesShrink(t *testing.T) {
	d, err := NewDiagram([]Element{{ID: 0, Priority: 1, Period: 4, Length: 1, Mode: Direct}}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Grow(20); err == nil {
		t.Fatal("Grow accepted a smaller horizon")
	}
	if err := d.Grow(40); err != nil {
		t.Fatalf("Grow to the same horizon should be a no-op, got %v", err)
	}
}
