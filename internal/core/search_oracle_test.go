package core

import (
	"math"
	"testing"

	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// CalUSearchDoubling is the doubling-horizon search CalUSearchCap ran
// before it learned to jump: it lays the initial diagram out at the
// first horizon, grows it through every doubling up to the cap, and
// evaluates each horizon on a modified clone. It is kept as the oracle
// the horizon-jump search is pinned to (search_differential_test.go);
// exported here so the external test package can reach it.
func CalUSearchDoubling(a *Analyzer, id stream.ID, maxHorizon int) (int, error) {
	s := a.Set.Get(id)
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
	if margin > MaxSearchHorizon/(len(elems)+1) {
		margin = MaxSearchHorizon
	} else {
		margin *= len(elems) + 1
	}
	h := s.Deadline
	if s.Latency > h {
		h = s.Latency
	}
	if h < 1 {
		h = 1
	}
	if h > maxHorizon {
		return -1, nil
	}
	init, err := newDiagram(elems, h, ar)
	if err != nil {
		return 0, err
	}
	best := -1
	for {
		d := init
		if hasIndirect {
			d = init.clone(ar)
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
	return best, nil
}

// assertSearchMatchesDoubling compares CalUSearchCap with the doubling
// oracle for one stream at one cap.
func assertSearchMatchesDoubling(t *testing.T, a *Analyzer, id stream.ID, maxHorizon int) int {
	t.Helper()
	got, err := a.CalUSearchCap(id, maxHorizon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CalUSearchDoubling(a, id, maxHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stream %d cap %d: CalUSearchCap = %d, doubling search = %d", id, maxHorizon, got, want)
	}
	return got
}

// TestSearchJumpMarginClamped: periods at the search cap clamp the
// stability margin to MaxSearchHorizon, so the jump lands on the cap
// itself and Modifies in place there; every skipped horizon stays
// unvisited because the cap finds the bound.
func TestSearchJumpMarginClamped(t *testing.T) {
	for _, period := range []int{MaxSearchHorizon, math.MaxInt / 4} {
		set, victim := extremePeriodSet(t, 8, period)
		a, err := NewAnalyzer(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, cap := range []int{1 << 16, MaxSearchHorizon} {
			if u := assertSearchMatchesDoubling(t, a, victim, cap); u <= 0 {
				t.Fatalf("period %d cap %d: bound %d, want a positive bound", period, cap, u)
			}
		}
	}
}

// TestSearchJumpAllUnboundedFallback: a victim under two hogs that
// fill every slot of its path finds no bound at any horizon, so the
// search reaches the fallback, walks every skipped horizon back down to
// the first and still reports -1, as the doubling search does. An
// indirect blocker exercises the Modify path at each fallback horizon.
func TestSearchJumpAllUnboundedFallback(t *testing.T) {
	m := topology.NewMesh2D(10, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	// Two hogs on 0->5 at 100% combined load, an indirect blocker on
	// 7->9 that reaches the victim through a middle stream on 4->8.
	mustAdd := func(src, dst topology.NodeID, prio, period, length int) stream.ID {
		s, err := set.Add(r, src, dst, prio, period, length, period)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID
	}
	mustAdd(0, 5, 9, 10, 5)
	mustAdd(0, 5, 8, 10, 5)
	mustAdd(7, 9, 7, 30, 6)
	mustAdd(4, 8, 6, 40, 4)
	victim := mustAdd(0, 5, 1, 20, 4)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := a.HP(victim)
	if err != nil {
		t.Fatal(err)
	}
	indirect := false
	for _, e := range hp.Elems {
		indirect = indirect || e.Mode == Indirect
	}
	if !indirect {
		t.Fatal("fixture lost its indirect element")
	}
	for _, cap := range []int{64, 200, 1 << 10, 1 << 16, MaxSearchHorizon} {
		if u := assertSearchMatchesDoubling(t, a, victim, cap); u != -1 {
			t.Fatalf("cap %d: bound %d for a saturated victim, want -1", cap, u)
		}
	}
}

// TestSearchJumpFallbackFindsBound: a victim whose bound exists at a
// horizon the jump skips but at no horizon it visits. Modify releases
// are not window-local, so a truncated window can free slots a longer
// horizon keeps occupied; the doubling search keeps that best-effort
// bound, and the fallback must walk back down to find it.
func TestSearchJumpFallbackFindsBound(t *testing.T) {
	m := topology.NewMesh2D(6, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	for _, s := range []struct{ src, dst, prio, period, length, deadline int }{
		{2, 5, 3, 8, 2, 8},
		{2, 4, 1, 61, 2, 34}, // the victim
		{0, 5, 2, 50, 6, 29},
		{4, 5, 3, 24, 1, 24},
		{1, 5, 5, 15, 8, 15},
		{0, 1, 2, 15, 7, 15},
		{2, 3, 2, 46, 8, 46},
	} {
		if _, err := set.Add(r, topology.NodeID(s.src), topology.NodeID(s.dst), s.prio, s.period, s.length, s.deadline); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	if u := assertSearchMatchesDoubling(t, a, 1, 1<<10); u < 0 {
		t.Fatalf("cap 1024: bound %d, want the skipped horizon's best-effort bound", u)
	}
	for _, cap := range []int{64, 512, 1 << 16, MaxSearchHorizon} {
		assertSearchMatchesDoubling(t, a, 1, cap)
	}
}

// TestSearchJumpPaperExample: every stream of the paper's worked
// example, over caps from below the first horizon up to the maximum.
func TestSearchJumpPaperExample(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range set.Streams {
		for _, cap := range []int{1, 16, 100, 1 << 10, 1 << 16, MaxSearchHorizon} {
			assertSearchMatchesDoubling(t, a, s.ID, cap)
		}
	}
}
