package sched

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

func lineSet(t *testing.T, specs [][4]int) *stream.Set {
	t.Helper()
	m := topology.NewMesh2D(12, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	for _, sp := range specs { // {priority, period, length, deadline}
		if _, err := set.Add(r, 0, 11, sp[0], sp[1], sp[2], sp[3]); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

func TestResponseTimeUnblocked(t *testing.T) {
	set := lineSet(t, [][4]int{{1, 100, 5, 100}})
	r, err := ResponseTimeBound(set, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r != set.Get(0).Latency {
		t.Fatalf("R = %d, want L = %d", r, set.Get(0).Latency)
	}
}

func TestResponseTimeWithInterference(t *testing.T) {
	// Hog: T=20, C=5. Victim: L = 11 + 3 - 1 = 13.
	set := lineSet(t, [][4]int{{2, 20, 5, 20}, {1, 100, 3, 100}})
	r, err := ResponseTimeBound(set, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// R = 13 + ceil(R/20)*5: R=13 -> 18 -> 18 (ceil(18/20)=1). Fixpoint 18.
	if r != 18 {
		t.Fatalf("R = %d, want 18", r)
	}
}

func TestResponseTimeDivergesUnderSaturation(t *testing.T) {
	set := lineSet(t, [][4]int{{2, 10, 10, 10}, {1, 50, 3, 50}})
	r, err := ResponseTimeBound(set, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if r != -1 {
		t.Fatalf("R = %d, want -1 (saturated)", r)
	}
}

func TestResponseTimeErrors(t *testing.T) {
	set := lineSet(t, [][4]int{{1, 100, 5, 100}})
	if _, err := ResponseTimeBound(set, 9, 100); err == nil {
		t.Error("accepted unknown stream")
	}
	if _, err := ResponseTimeBound(set, 0, 0); err == nil {
		t.Error("accepted zero horizon")
	}
}

func TestFeasible(t *testing.T) {
	ok, bounds, err := Feasible(lineSet(t, [][4]int{{2, 50, 5, 50}, {1, 100, 3, 100}}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("light load should be RM-feasible: %v", bounds)
	}
	ok, _, err = Feasible(lineSet(t, [][4]int{{2, 20, 18, 20}, {1, 25, 10, 25}}))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("saturated load should be RM-infeasible")
	}
}

// TestRMIgnoresIndirectBlocking demonstrates the paper's criticism: the
// RM bound for a stream with only indirect blockers equals its bare
// latency, while the paper's algorithm charges the indirect
// interference. Chain: m1 -> m2 -> m3 -> victim on one column.
func TestRMIgnoresIndirectBlocking(t *testing.T) {
	m := topology.NewMesh2D(12, 12)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	add := func(sy, dy, p, period, c int) stream.ID {
		s, err := set.Add(r, m.ID(3, sy), m.ID(3, dy), p, period, c, period)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID
	}
	hi := add(0, 3, 4, 10, 6) // heavy, overlaps mid1 only
	mid1 := add(2, 5, 3, 30, 4)
	add(4, 7, 2, 30, 4) // mid2: direct blocker of the victim
	victim := add(6, 9, 1, 200, 2)
	_ = hi

	// RM sees only mid2 (direct overlap with the victim).
	rmBound, err := ResponseTimeBound(set, victim, 10000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's HP set of the victim contains mid2 direct, mid1
	// indirect (via mid2) and hi indirect.
	hp, err := a.HP(victim)
	if err != nil {
		t.Fatal(err)
	}
	if e := hp.Get(mid1); e == nil || e.Mode != core.Indirect {
		t.Fatalf("mid1 should be indirect in the victim's HP set: %s", hp.String())
	}
	paperBound, err := a.CalUSearchCap(victim, core.MaxSearchHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if paperBound < rmBound {
		t.Fatalf("paper bound %d below RM bound %d — indirect blocking should only add delay", paperBound, rmBound)
	}
}

func TestLinkUtilization(t *testing.T) {
	set := lineSet(t, [][4]int{{2, 10, 5, 10}, {1, 20, 4, 20}})
	u := LinkUtilization(set)
	// Every one of the 11 channels carries both streams: 0.5 + 0.2.
	if len(u) != 11 {
		t.Fatalf("%d channels, want 11", len(u))
	}
	for ch, v := range u {
		if math.Abs(v-0.7) > 1e-9 {
			t.Fatalf("channel %s utilisation %f, want 0.7", ch, v)
		}
	}
	if math.Abs(MaxLinkUtilization(set)-0.7) > 1e-9 {
		t.Fatal("MaxLinkUtilization wrong")
	}
	empty := stream.NewSet(topology.NewMesh2D(3, 3))
	if MaxLinkUtilization(empty) != 0 {
		t.Fatal("empty set should have zero utilisation")
	}
}
