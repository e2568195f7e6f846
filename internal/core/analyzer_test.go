package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestWorkedExampleBounds reproduces the delay upper bounds of §4.4.
// The paper prints U = (7, 8, 26, 2x, 33); U_0, U_1, U_2 and U_4 are
// matched exactly. U_3 = 30 here rather than the paper's (truncated)
// value because the consistent HP_3 additionally contains M2 and M0
// (see TestWorkedExampleHPSets); TestPaperHP3Bound shows the diagram
// engine yields U_3 = 20 under the paper's printed HP_3.
func TestWorkedExampleBounds(t *testing.T) {
	set := paperExample(t)
	rep, err := DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{7, 8, 26, 30, 33}
	for i, v := range rep.Verdicts {
		if v.U != want[i] {
			t.Errorf("U_%d = %d, want %d", i, v.U, want[i])
		}
		if !v.Feasible {
			t.Errorf("stream %d infeasible (U=%d, D=%d)", i, v.U, v.Deadline)
		}
	}
	if !rep.Feasible {
		t.Error("set should be feasible (paper: returns success)")
	}
}

// TestPaperHP3Bound: under the paper's printed HP_3 = {(1,DIRECT)},
// the diagram engine computes U_3 = 20, matching the paper's truncated
// "U_3 = 2" (OCR lost the trailing digit).
func TestPaperHP3Bound(t *testing.T) {
	elems := []Element{{ID: 1, Priority: 4, Period: 10, Length: 2, Mode: Direct}}
	d, err := NewDiagram(elems, 45)
	if err != nil {
		t.Fatal(err)
	}
	if u := d.DelayUpperBound(16); u != 20 {
		t.Fatalf("U_3 under paper's HP_3 = %d, want 20\n%s", u, d.Render(0))
	}
}

// TestInitialHP4DiagramHasSevenFreeSlots reproduces the paper's
// statement about Figure 7: "There are 7 free time slots at the last
// row. Because the network latency of M4 is 10, deadline can not be
// guaranteed" (without Modify_Diagram).
func TestInitialHP4DiagramHasSevenFreeSlots(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.InitialDiagram(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if free := d.FreeSlots(50); free != 7 {
		t.Fatalf("initial HP_4 diagram has %d free slots, want 7\n%s", free, d.Render(0))
	}
	if u := d.DelayUpperBound(10); u != -1 {
		t.Fatalf("without Modify the bound should not exist within 50, got %d", u)
	}
}

// TestFinalHP4Diagram reproduces Figure 9: after Modify_Diagram, M0's
// second and third instances and M1's fourth instance are removed, the
// first instance of M3 is compacted (finishing at slot 23), and U_4 =
// 33.
func TestFinalHP4Diagram(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Diagram(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(id stream.ID) []int {
		row, ok := d.Row(id)
		if !ok {
			t.Fatalf("no row %d", id)
		}
		var out []int
		for c, cell := range row {
			if cell == Allocated {
				out = append(out, c+1)
			}
		}
		return out
	}
	eq := func(got, want []int, id stream.ID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("M%d allocations = %v, want %v\n%s", id, got, want, d.Render(0))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("M%d allocations = %v, want %v", id, got, want)
			}
		}
	}
	// M0: instances 2 and 3 ([16,19], [31,34]) removed; instance 4
	// survives because M2's second window requests slots 46-49.
	eq(alloc(0), []int{1, 2, 3, 4, 46, 47, 48, 49}, 0)
	// M1: fourth instance ([31,40]) removed.
	eq(alloc(1), []int{5, 6, 11, 12, 21, 22, 41, 42}, 1)
	// M3's first instance compacted: 13-20 plus 23.
	eq(alloc(3), []int{13, 14, 15, 16, 17, 18, 19, 20, 23}, 3)
	if u := d.DelayUpperBound(10); u != 33 {
		t.Fatalf("U_4 = %d, want 33\n%s", u, d.Render(0))
	}
}

func TestAnalyzerErrors(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HP(99); err == nil {
		t.Error("HP(99) should fail")
	}
	if _, err := a.BDG(-1); err == nil {
		t.Error("BDG(-1) should fail")
	}
	if _, err := a.CalU(99); err == nil {
		t.Error("CalU(99) should fail")
	}
	if _, err := a.CalUHorizon(99, 10); err == nil {
		t.Error("CalUHorizon(99) should fail")
	}
	if _, err := a.Diagram(99, 10); err == nil {
		t.Error("Diagram(99) should fail")
	}
	if _, err := a.InitialDiagram(99, 10); err == nil {
		t.Error("InitialDiagram(99) should fail")
	}
	if _, err := a.CalUSearchCap(99, MaxSearchHorizon); err == nil {
		t.Error("CalUSearchCap(99) should fail")
	}
	// Invalid sets are rejected up front.
	set.Streams[0].Latency = 1
	if _, err := NewAnalyzer(set); err == nil {
		t.Error("NewAnalyzer accepted invalid set")
	}
}

func TestCalUSearchExtendsBeyondDeadline(t *testing.T) {
	// A low-priority stream whose bound exceeds its deadline: CalU
	// reports -1, CalUSearchCap finds the true bound.
	m := topology.NewMesh2D(10, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	if _, err := set.Add(r, 0, 9, 2, 10, 8, 10); err != nil { // hog: 80% load
		t.Fatal(err)
	}
	if _, err := set.Add(r, 0, 9, 1, 12, 4, 12); err != nil { // victim, tight deadline
		t.Fatal(err)
	}
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	u, err := a.CalU(1)
	if err != nil {
		t.Fatal(err)
	}
	if u != -1 {
		t.Fatalf("CalU within deadline 12 = %d, want -1", u)
	}
	us, err := a.CalUSearchCap(1, MaxSearchHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if us <= 12 {
		t.Fatalf("CalUSearchCap = %d, want > deadline", us)
	}
	// Consistency: recomputing at a fixed larger horizon agrees.
	u2, _ := a.CalUHorizon(1, 4*us)
	if u2 != us {
		t.Fatalf("CalUSearchCap = %d but CalUHorizon(4x) = %d", us, u2)
	}
}

func TestCalUSearchSaturationReturnsMinusOne(t *testing.T) {
	// Two equal streams each demanding 100% of the shared channel: the
	// lower-priority one never accumulates free slots.
	m := topology.NewMesh2D(4, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	if _, err := set.Add(r, 0, 3, 2, 5, 5, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(r, 0, 3, 1, 5, 2, 5); err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	u, err := a.CalUSearchCap(1, MaxSearchHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if u != -1 {
		t.Fatalf("CalUSearchCap under saturation = %d, want -1", u)
	}
}

// TestFeasibilityFailure: a stream whose bound exceeds its deadline
// makes the whole set infeasible (the algorithm returns fail).
func TestFeasibilityFailure(t *testing.T) {
	m := topology.NewMesh2D(10, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	if _, err := set.Add(r, 0, 9, 2, 20, 10, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(r, 0, 9, 1, 20, 10, 20); err != nil {
		t.Fatal(err)
	}
	rep, err := DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("set should be infeasible")
	}
	if rep.Verdicts[0].U != 18 { // 9 hops + 10 flits - 1
		t.Fatalf("U_0 = %d, want 18 (never blocked)", rep.Verdicts[0].U)
	}
	if rep.Verdicts[1].Feasible {
		t.Fatal("low-priority stream should be infeasible")
	}
}

// TestHighestPriorityBoundEqualsLatency: property over random sets —
// the unique highest-priority stream is never blocked, so U = L.
func TestHighestPriorityBoundEqualsLatency(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	r := routing.NewXY(m)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		set := stream.NewSet(m)
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			src := topology.NodeID(rng.Intn(64))
			dst := topology.NodeID(rng.Intn(64))
			if src == dst {
				dst = (dst + 1) % 64
			}
			// Stream i gets priority n-i: stream 0 is uniquely highest.
			if _, err := set.Add(r, src, dst, n-i, 200+rng.Intn(100), 1+rng.Intn(10), 0); err != nil {
				t.Fatal(err)
			}
		}
		a, err := NewAnalyzer(set)
		if err != nil {
			t.Fatal(err)
		}
		u, err := a.CalU(0)
		if err != nil {
			t.Fatal(err)
		}
		if u != set.Get(0).Latency {
			t.Fatalf("trial %d: highest-priority U = %d, want L = %d", trial, u, set.Get(0).Latency)
		}
	}
}

// TestBoundMonotoneInBlockers: property — adding a higher-priority
// stream never decreases any existing stream's bound.
func TestBoundMonotoneInBlockers(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	r := routing.NewXY(m)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		base := stream.NewSet(m)
		n := 2 + rng.Intn(4)
		params := make([][6]int, 0, n+1)
		for i := 0; i <= n; i++ {
			src := rng.Intn(64)
			dst := rng.Intn(64)
			if src == dst {
				dst = (dst + 1) % 64
			}
			params = append(params, [6]int{src, dst, n + 2 - i, 150 + rng.Intn(100), 1 + rng.Intn(8), 0})
		}
		// base: streams 1..n (the lower-priority ones).
		for _, p := range params[1:] {
			if _, err := base.Add(r, topology.NodeID(p[0]), topology.NodeID(p[1]), p[2], p[3], p[4], p[5]); err != nil {
				t.Fatal(err)
			}
		}
		// ext: stream 0 (uniquely highest) plus the same streams.
		ext := stream.NewSet(m)
		for _, p := range params {
			if _, err := ext.Add(r, topology.NodeID(p[0]), topology.NodeID(p[1]), p[2], p[3], p[4], p[5]); err != nil {
				t.Fatal(err)
			}
		}
		ab, err := NewAnalyzer(base)
		if err != nil {
			t.Fatal(err)
		}
		ae, err := NewAnalyzer(ext)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ub, err := ab.CalUSearchCap(stream.ID(i), MaxSearchHorizon)
			if err != nil {
				t.Fatal(err)
			}
			ue, err := ae.CalUSearchCap(stream.ID(i+1), MaxSearchHorizon) // shifted by the new stream
			if err != nil {
				t.Fatal(err)
			}
			if ub == -1 {
				continue // already saturated
			}
			if ue != -1 && ue < ub {
				t.Fatalf("trial %d stream %d: bound decreased from %d to %d after adding a blocker", trial, i, ub, ue)
			}
		}
	}
}

// TestBoundAtLeastLatency: property — U is never below the network
// latency.
func TestBoundAtLeastLatency(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	r := routing.NewXY(m)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		set := stream.NewSet(m)
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			src := rng.Intn(64)
			dst := rng.Intn(64)
			if src == dst {
				dst = (dst + 1) % 64
			}
			if _, err := set.Add(r, topology.NodeID(src), topology.NodeID(dst), 1+rng.Intn(4), 100+rng.Intn(200), 1+rng.Intn(10), 0); err != nil {
				t.Fatal(err)
			}
		}
		a, err := NewAnalyzer(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range set.Streams {
			u, err := a.CalUSearchCap(s.ID, MaxSearchHorizon)
			if err != nil {
				t.Fatal(err)
			}
			if u != -1 && u < s.Latency {
				t.Fatalf("trial %d: U_%d = %d < L = %d", trial, s.ID, u, s.Latency)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	set := paperExample(t)
	rep, err := DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) != set.Len() {
		t.Fatalf("got %d verdicts", len(rep.Verdicts))
	}
	for i, v := range rep.Verdicts {
		if int(v.ID) != i {
			t.Fatalf("verdict %d has ID %d", i, v.ID)
		}
	}
}

func TestRenderWorkedExample(t *testing.T) {
	set := paperExample(t)
	a, _ := NewAnalyzer(set)
	d, _ := a.Diagram(4, 50)
	out := d.Render(0)
	if !strings.Contains(out, "M0") || !strings.Contains(out, "result") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}
