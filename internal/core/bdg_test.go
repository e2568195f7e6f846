package core

import (
	"strings"
	"testing"

	"repro/internal/stream"
)

// TestWorkedExampleBDG reproduces Figure 8: the blocking dependency
// graph of HP_4 with edges M0->M2, M1->M2, M1->M3, M2->M4, M3->M4.
func TestWorkedExampleBDG(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.BDG(4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]stream.ID{{0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %v, want 5", g.Nodes)
	}
}

// TestFigure5BDG: the linear chain example — edges M1->M2, M2->M3,
// M3->M4.
func TestFigure5BDG(t *testing.T) {
	g := NewBDG(4, []HPElem{
		{ID: 1, Mode: Indirect, Via: []stream.ID{2}},
		{ID: 2, Mode: Indirect, Via: []stream.ID{3}},
		{ID: 3, Mode: Direct},
	})
	for _, e := range [][2]stream.ID{{1, 2}, {2, 3}, {3, 4}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v in %s", e, g.String())
		}
	}
	if g.HasEdge(1, 4) || g.HasEdge(2, 4) {
		t.Fatalf("indirect elements must not point at the owner: %s", g.String())
	}
	if got := g.Blocks(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Blocks(1) = %v", got)
	}
}

func TestBDGDeduplicatesEdges(t *testing.T) {
	g := NewBDG(9, []HPElem{
		{ID: 1, Mode: Direct},
		{ID: 2, Mode: Indirect, Via: []stream.ID{1, 1}},
	})
	if got := g.Blocks(2); len(got) != 1 {
		t.Fatalf("duplicate via produced duplicate edges: %v", got)
	}
}

func TestBDGString(t *testing.T) {
	set := paperExample(t)
	a, _ := NewAnalyzer(set)
	g, _ := a.BDG(4)
	s := g.String()
	for _, want := range []string{"BDG(M4)", "0->2", "3->4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestBDGEmptyHPSet(t *testing.T) {
	g := NewBDG(0, nil)
	if len(g.Nodes) != 1 || g.Nodes[0] != 0 {
		t.Fatalf("nodes = %v", g.Nodes)
	}
	if len(g.Edges()) != 0 {
		t.Fatalf("edges = %v", g.Edges())
	}
}
