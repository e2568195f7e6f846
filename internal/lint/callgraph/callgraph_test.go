package callgraph

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lint/linttest"
)

// buildOver loads the fixture set and builds the graph.
func buildOver(t *testing.T, pkgs map[string]map[string]string) *Graph {
	t.Helper()
	return Build(linttest.LoadPackages(t, pkgs))
}

// nodeByKey finds a node by suffix of its key, failing when absent or
// ambiguous.
func nodeByKey(t *testing.T, g *Graph, suffix string) *Node {
	t.Helper()
	var found *Node
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Key(), suffix) {
			if found != nil {
				t.Fatalf("key suffix %q ambiguous: %s and %s", suffix, found.Key(), n.Key())
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node with key suffix %q; have %v", suffix, keys(g))
	}
	return found
}

func keys(g *Graph) []string {
	out := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = n.Key()
	}
	return out
}

// edgeTo returns caller's edges whose callee key ends with suffix.
func edgesTo(n *Node, suffix string) []*Edge {
	var out []*Edge
	for _, e := range n.Out {
		if strings.HasSuffix(e.Callee.Key(), suffix) {
			out = append(out, e)
		}
	}
	return out
}

func TestStaticCalls(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/a": {"a.go": `package a

import "fix/b"

func Caller() {
	local()
	b.Exported()
}

func local() {}
`},
		"fix/b": {"b.go": `package b

func Exported() {}
`},
	})
	caller := nodeByKey(t, g, "fix/a.Caller")
	if got := len(caller.Out); got != 2 {
		t.Fatalf("Caller has %d out edges, want 2", got)
	}
	for _, suffix := range []string{"fix/a.local", "fix/b.Exported"} {
		es := edgesTo(caller, suffix)
		if len(es) != 1 || es[0].Kind != Static {
			t.Errorf("expected one static edge to %s, got %d", suffix, len(es))
		}
	}
}

func TestConcreteMethodCall(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/m": {"m.go": `package m

type Box struct{ n int }

func (b *Box) Inc() { b.n++ }

func Use(b *Box) { b.Inc() }
`},
	})
	use := nodeByKey(t, g, ".Use")
	es := edgesTo(use, "Inc")
	if len(es) != 1 || es[0].Kind != Static {
		t.Fatalf("Use -> Inc: got %d edges (want 1 static)", len(es))
	}
}

func TestInterfaceFanout(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/i": {"i.go": `package i

type Runner interface{ Run() }

type A struct{}

func (A) Run() {}

type B struct{}

func (*B) Run() {}

type unrelated struct{}

func (unrelated) Walk() {}

func Dispatch(r Runner) { r.Run() }
`},
	})
	d := nodeByKey(t, g, ".Dispatch")
	if len(d.Out) != 2 {
		t.Fatalf("Dispatch has %d edges, want 2 (A.Run, (*B).Run): %v", len(d.Out), d.Out)
	}
	for _, e := range d.Out {
		if e.Kind != Interface {
			t.Errorf("edge to %s has kind %v, want Interface", e.Callee.Key(), e.Kind)
		}
	}
	// Sorted by callee key: A.Run before *B.Run... keys are
	// "fix/i.A.Run" and "fix/i.*fix/i.B.Run"; just check determinism of
	// the pair against a rebuild below in TestDeterminism.
}

func TestContextFlags(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/f": {"f.go": `package f

func target() {}

func Caller() {
	target()
	defer target()
	go target()
	f := func() { target() }
	f()
	defer func() { target() }()
}
`},
	})
	caller := nodeByKey(t, g, ".Caller")
	es := edgesTo(caller, "target")
	if len(es) != 5 {
		t.Fatalf("Caller -> target: %d edges, want 5", len(es))
	}
	var plain, deferred, gone, inLit int
	for _, e := range es {
		switch {
		case e.Defer:
			deferred++
		case e.Go:
			gone++
		case e.InLit:
			inLit++
		default:
			plain++
		}
	}
	if plain != 1 || deferred != 1 || gone != 1 || inLit != 2 {
		t.Errorf("flag counts plain=%d defer=%d go=%d inLit=%d, want 1/1/1/2",
			plain, deferred, gone, inLit)
	}
}

func TestFanoutBound(t *testing.T) {
	// MaxInterfaceFanout+4 implementations: the edge list must stop at
	// the bound, deterministically (lowest keys kept).
	src := "package big\n\ntype I interface{ M() }\n\nfunc Dispatch(i I) { i.M() }\n"
	for k := 0; k < MaxInterfaceFanout+4; k++ {
		src += fmt.Sprintf("\ntype T%02d struct{}\n\nfunc (T%02d) M() {}\n", k, k)
	}
	g := buildOver(t, map[string]map[string]string{"fix/big": {"big.go": src}})
	d := nodeByKey(t, g, ".Dispatch")
	if len(d.Out) != MaxInterfaceFanout {
		t.Fatalf("fanout %d, want bound %d", len(d.Out), MaxInterfaceFanout)
	}
	// Candidates are scanned in node-key order, so the kept set is the
	// lexicographically first implementations.
	for _, e := range d.Out {
		if !strings.Contains(e.Callee.Key(), "T0") && !strings.Contains(e.Callee.Key(), "T1") {
			t.Errorf("unexpected survivor %s past deterministic bound", e.Callee.Key())
		}
	}
}

func TestNoEdgeForFuncValues(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/v": {"v.go": `package v

func target() {}

func Caller() {
	f := target
	f() // call through a function value: unresolved, no edge
}
`},
	})
	caller := nodeByKey(t, g, ".Caller")
	if len(caller.Out) != 0 {
		t.Errorf("function-value call produced edges: %v", caller.Out)
	}
}

func TestTestFilesExcluded(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/t": {
			"t.go":      "package t\n\nfunc Prod() {}\n",
			"x_test.go": "package t\n\nfunc helperInTest() { Prod() }\n",
		},
	})
	for _, n := range g.Nodes {
		if n.Func.Name() == "helperInTest" {
			t.Errorf("test-file function got a node: %s", n.Key())
		}
	}
	for _, n := range g.Nodes {
		if len(n.Out) != 0 {
			t.Errorf("edges from test files leaked in: %s -> %v", n.Key(), n.Out)
		}
	}
}

func TestDeterminism(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/i": {"i.go": `package i

type Runner interface{ Run() }

type A struct{}

func (A) Run() { helper() }

type B struct{}

func (*B) Run() { helper() }

func helper() {}

func Dispatch(r Runner) { r.Run() }
`},
	}
	a := shape(buildOver(t, fixture))
	b := shape(buildOver(t, fixture))
	if a != b {
		t.Errorf("two builds differ:\n%s\nvs\n%s", a, b)
	}
}

// shape serializes the graph structure for comparison.
func shape(g *Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		sb.WriteString(n.Key())
		sb.WriteString(" ->")
		for _, e := range n.Out {
			fmt.Fprintf(&sb, " %s(kind=%d,lit=%v,defer=%v,go=%v)",
				e.Callee.Key(), e.Kind, e.InLit, e.Defer, e.Go)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestFuncKeyForms pins the node key format the summary dump and every
// sorted iteration depend on.
func TestFuncKeyForms(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/k": {"k.go": `package k

type T struct{}

func (T) Value() {}

func (*T) Pointer() {}

func Free() {}
`},
	})
	want := "fix/k.*fix/k.T.Pointer fix/k.Free fix/k.fix/k.T.Value"
	if got := strings.Join(keys(g), " "); got != want {
		t.Errorf("keys = %s, want %s", got, want)
	}
}

// TestGenericUnderApproximation pins the documented precision limit:
// generic decls get nodes, implicitly-instantiated calls resolve, and
// explicitly-instantiated calls (IndexExpr callee) produce no edge —
// if the resolver ever learns to look through instantiation, this test
// should be updated along with the package doc.
func TestGenericUnderApproximation(t *testing.T) {
	g := buildOver(t, map[string]map[string]string{
		"fix/g": {"g.go": `package g

func Clamp[T int | int64](v, hi T) T {
	if v > hi {
		return hi
	}
	return v
}

func Implicit() { Clamp(1, 2) }

func Explicit() { Clamp[int64](1, 2) }
`},
	})
	if n := nodeByKey(t, g, "fix/g.Clamp"); n.Decl == nil {
		t.Fatal("generic decl must get a node")
	}
	imp := nodeByKey(t, g, "fix/g.Implicit")
	if es := edgesTo(imp, ".Clamp"); len(es) != 1 || es[0].Kind != Static {
		t.Errorf("implicit instantiation must resolve statically, got %d edges\n%s", len(es), shape(g))
	}
	exp := nodeByKey(t, g, "fix/g.Explicit")
	if es := edgesTo(exp, ".Clamp"); len(es) != 0 {
		t.Errorf("explicit instantiation documented as unresolved, got %d edges\n%s", len(es), shape(g))
	}
}
