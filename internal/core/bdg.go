package core

import (
	"fmt"
	"sort"

	"repro/internal/stream"
)

// BDG is the blocking dependency graph of one stream's HP set (paper
// Figures 5 and 8). Nodes are the owner and its HP elements; an edge
// a -> b means "a can block b": every direct element points at the
// owner, and every indirect element points at each of its intermediate
// streams.
type BDG struct {
	Owner stream.ID
	Nodes []stream.ID
	edges map[stream.ID][]stream.ID // a -> list of b with edge a->b
}

// NewBDG builds the blocking dependency graph from an HP set (with the
// owner already removed, as in Cal_U).
func NewBDG(owner stream.ID, elems []HPElem) *BDG {
	g := &BDG{Owner: owner, edges: make(map[stream.ID][]stream.ID)}
	nodes := map[stream.ID]bool{owner: true}
	for _, e := range elems {
		nodes[e.ID] = true
		if e.Mode == Direct {
			g.addEdge(e.ID, owner)
		} else {
			for _, v := range e.Via {
				g.addEdge(e.ID, v)
			}
		}
	}
	for id := range nodes {
		g.Nodes = append(g.Nodes, id)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i] < g.Nodes[j] })
	return g
}

func (g *BDG) addEdge(a, b stream.ID) {
	for _, e := range g.edges[a] {
		if e == b {
			return
		}
	}
	g.edges[a] = append(g.edges[a], b)
	sort.Slice(g.edges[a], func(i, j int) bool { return g.edges[a][i] < g.edges[a][j] })
}

// Blocks returns the nodes that a directly blocks (a's out-edges).
func (g *BDG) Blocks(a stream.ID) []stream.ID {
	out := make([]stream.ID, len(g.edges[a]))
	copy(out, g.edges[a])
	return out
}

// HasEdge reports whether the edge a -> b exists.
func (g *BDG) HasEdge(a, b stream.ID) bool {
	for _, e := range g.edges[a] {
		if e == b {
			return true
		}
	}
	return false
}

// Edges returns every edge in deterministic order.
func (g *BDG) Edges() [][2]stream.ID {
	var out [][2]stream.ID
	for _, a := range g.Nodes {
		for _, b := range g.edges[a] {
			out = append(out, [2]stream.ID{a, b})
		}
	}
	return out
}

// String renders the graph as "owner<-{...}" edge lists.
func (g *BDG) String() string {
	s := fmt.Sprintf("BDG(M%d):", g.Owner)
	for _, e := range g.Edges() {
		s += fmt.Sprintf(" %d->%d", e[0], e[1])
	}
	return s
}
