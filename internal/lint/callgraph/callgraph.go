// Package callgraph builds a module-local static call graph over the
// type-checked packages of one rtwlint run, the base of the function
// summaries in internal/lint/summary.
//
// Resolution rules, in order of precision:
//
//   - plain calls (`f()`, `pkg.F()`) resolve through go/types uses to
//     the declared function;
//   - method calls on a concrete receiver (`c.commit()`, including
//     promoted methods) resolve through the type-checker's selection to
//     the concrete method;
//   - method calls on an interface value resolve to the corresponding
//     method of every in-module named type that implements the
//     interface, bounded at MaxInterfaceFanout implementations (sorted
//     by function key, so truncation is deterministic too);
//   - calls through function values, built-ins, and out-of-module
//     callees produce no edge.
//
// Generic functions are a known under-approximation: their decls get
// nodes and implicitly-instantiated calls (`Clamp(v, hi)`) resolve
// through go/types uses like any other, but an explicitly-instantiated
// call (`Clamp[int64](v, hi)`) wraps its callee in an IndexExpr the
// resolver does not look through, so it produces no edge. Summaries
// built on the graph therefore miss effects behind explicit
// instantiations; analyzers must not assume the absence of an edge
// means the absence of a call.
//
// Call sites lexically inside a function literal are attributed to the
// enclosing declared function but carry the InLit flag — a closure may
// run on another goroutine or not at all, so effect propagation (see
// summary) treats them more conservatively. Likewise Defer and Go mark
// sites whose call is the immediate operand of a defer or go statement.
//
// Everything the graph exposes is sorted: nodes by function key, edges
// by (callee key, site position). Two builds over the same packages are
// structurally identical, which the determinism guarantees of rtwlint's
// output rest on.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// MaxInterfaceFanout bounds how many in-module implementations one
// interface call site may resolve to; beyond it the (sorted) tail is
// dropped rather than exploding quadratic analyses.
const MaxInterfaceFanout = 16

// Kind classifies how a call site was resolved.
type Kind int

const (
	// Static is a direct call to a declared function or a method on a
	// concrete receiver.
	Static Kind = iota
	// Interface is a call through an interface method, fanned out to
	// in-module implementations.
	Interface
)

// Node is one declared function or method of the module.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl // always non-nil: only functions with bodies get nodes
	Pkg  *analysis.Package
	// Out holds this function's call sites that resolved to in-module
	// callees, sorted by (callee key, position).
	Out []*Edge

	key string
}

// Key is the node's stable, module-unique identity:
// "pkgpath.(recv).Name" for methods, "pkgpath.Name" for functions.
func (n *Node) Key() string { return n.key }

// Edge is one resolved call site.
type Edge struct {
	Callee *Node
	Site   *ast.CallExpr
	Kind   Kind
	// InLit marks sites lexically inside a function literal of the
	// caller; Defer and Go mark the immediate operand of a defer or go
	// statement.
	InLit bool
	Defer bool
	Go    bool
}

// Graph is the module-local call graph.
type Graph struct {
	// Nodes is every declared function of the module that has a body,
	// sorted by Key.
	Nodes []*Node

	byFunc map[*types.Func]*Node
}

// funcKey returns the stable key of fn's node.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return pkg + "." + types.TypeString(recv.Type(), nil) + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// Build constructs the call graph over the given packages. Test files
// are excluded: the analyzers built on the graph skip them, and edges
// from tests would only dilute summaries.
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{byFunc: map[*types.Func]*Node{}}

	// Node pass: every FuncDecl with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if analysis.IsTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Func: fn, Decl: fd, Pkg: pkg, key: funcKey(fn)}
				g.byFunc[fn] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].key < g.Nodes[j].key })

	impls := implementerIndex(g)

	// Edge pass: resolve every call site of every node body.
	for _, n := range g.Nodes {
		b := &edgeWalker{g: g, node: n, impls: impls}
		b.walk(n.Decl.Body)
		sort.Slice(n.Out, func(i, j int) bool {
			a, c := n.Out[i], n.Out[j]
			if a.Callee.key != c.Callee.key {
				return a.Callee.key < c.Callee.key
			}
			return a.Site.Pos() < c.Site.Pos()
		})
	}
	return g
}

// implementerIndex maps each in-module method name to the module
// methods bearing it, the candidate pool interface fan-out draws from.
func implementerIndex(g *Graph) map[string][]*Node {
	idx := map[string][]*Node{}
	for _, n := range g.Nodes {
		if n.Func.Type().(*types.Signature).Recv() != nil {
			idx[n.Func.Name()] = append(idx[n.Func.Name()], n)
		}
	}
	return idx
}

// edgeWalker resolves the call sites of one function body, tracking
// literal nesting and defer/go context with an explicit node stack
// (ast.Inspect's nil-on-pop protocol).
type edgeWalker struct {
	g     *Graph
	node  *Node
	impls map[string][]*Node

	litDepth int
	stack    []ast.Node
}

func (w *edgeWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				w.litDepth--
			}
			return true
		}
		w.stack = append(w.stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			w.litDepth++
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.resolve(call)
		}
		return true
	})
}

// deferGo reports whether call is the immediate operand of a defer or
// go statement (the stack top below the call itself).
func (w *edgeWalker) deferGo(call *ast.CallExpr) (isDefer, isGo bool) {
	if len(w.stack) < 2 {
		return false, false
	}
	switch parent := w.stack[len(w.stack)-2].(type) {
	case *ast.DeferStmt:
		return parent.Call == call, false
	case *ast.GoStmt:
		return false, parent.Call == call
	}
	return false, false
}

func (w *edgeWalker) resolve(call *ast.CallExpr) {
	info := w.node.Pkg.Info
	isDefer, isGo := w.deferGo(call)
	add := func(callee *Node, kind Kind) {
		w.node.Out = append(w.node.Out, &Edge{
			Callee: callee, Site: call, Kind: kind,
			InLit: w.litDepth > 0, Defer: isDefer, Go: isGo,
		})
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if callee := w.g.byFunc[fn]; callee != nil {
				add(callee, Static)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return
			}
			if callee := w.g.byFunc[fn]; callee != nil {
				add(callee, Static) // concrete receiver: the selection IS the method
				return
			}
			// Interface dispatch: fan out to in-module implementations.
			recv := sel.Recv()
			iface, ok := recv.Underlying().(*types.Interface)
			if !ok {
				return
			}
			for _, callee := range w.implementers(iface, fn.Name()) {
				add(callee, Interface)
			}
			return
		}
		// Qualified call pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if callee := w.g.byFunc[fn]; callee != nil {
				add(callee, Static)
			}
		}
	}
}

// implementers returns (bounded, in key order) the module methods named
// name whose receiver type implements iface.
func (w *edgeWalker) implementers(iface *types.Interface, name string) []*Node {
	var out []*Node
	for _, cand := range w.impls[name] {
		recv := cand.Func.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(deref(recv)), iface) {
			out = append(out, cand)
			if len(out) == MaxInterfaceFanout {
				break
			}
		}
	}
	return out
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
