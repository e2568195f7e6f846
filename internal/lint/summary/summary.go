// Package summary computes two facts per function of the module,
// once per rtwlint run, over the module call graph
// (internal/lint/callgraph):
//
//   - Sorts: whether the function calls a sort routine (sort.*,
//     slices.Sort*), directly or through a callee that sorts. The
//     detrand analyzer uses it to recognise collect-then-sort helpers
//     invoked from map-range bodies. Calls inside a function literal
//     (which may never run) and the call a go statement starts do not
//     count, and a deferred call (which runs only at return) does not
//     pass its callee's Sorts on.
//   - Ranges: conservative per-result value intervals for functions
//     whose return statements yield constant-bounded integers. The
//     interval tier reads them at call sites so `h := defaultHorizon()`
//     starts bounded instead of Top. Ranges is direct: it comes from
//     the function's own return statements and never flows through
//     call edges, because propagating callee ranges through arbitrary
//     arithmetic would need the full interval transfer machinery,
//     which lives in the tier itself.
//
// New computes every summary eagerly, Sorts by a boolean fixpoint over
// the call edges, so recursion converges. The Engine is read-only
// afterwards: concurrent per-package passes query it without locking.
// The result does not depend on iteration order.
package summary

import (
	"encoding/json"
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/interval"
)

// FuncFacts is the summary of one function.
type FuncFacts struct {
	// Sorts reports a call to a sorting routine in the function or,
	// transitively, in a callee it runs before returning (see the
	// package doc for which calls count).
	Sorts bool
	// Ranges, when non-nil, holds one conservative interval per result
	// of the function: the union over every return statement of the
	// result expression's constant value, Top for results no return
	// bounds. Nil when the function has no results, uses naked or
	// tuple-call returns, or bounds none of its results.
	Ranges []interval.Interval
}

// ResultRange returns the conservative interval of result i and
// whether the summary actually bounds it (a Top entry reports false).
func (f *FuncFacts) ResultRange(i int) (interval.Interval, bool) {
	if f == nil || i < 0 || i >= len(f.Ranges) {
		return interval.Top(), false
	}
	r := f.Ranges[i]
	return r, !r.IsTop()
}

// Engine holds the call graph and the summary of every function in it.
type Engine struct {
	Graph *callgraph.Graph
	facts map[*types.Func]*FuncFacts
}

// New builds the call graph over the packages and computes every
// summary.
func New(pkgs []*analysis.Package) *Engine {
	g := callgraph.Build(pkgs)
	e := &Engine{Graph: g, facts: make(map[*types.Func]*FuncFacts, len(g.Nodes))}
	for _, n := range g.Nodes {
		e.facts[n.Func] = &FuncFacts{
			Sorts:  sortsDirectly(n.Pkg.Info, n.Decl.Body),
			Ranges: resultRanges(n.Pkg.Info, n.Decl),
		}
	}
	// Sorts only ever turns from false to true, so the fixpoint ends,
	// recursive cycles included.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			f := e.facts[n.Func]
			for _, edge := range n.Out {
				if !f.Sorts && !edge.Go && !edge.Defer && !edge.InLit && e.facts[edge.Callee.Func].Sorts {
					f.Sorts, changed = true, true
				}
			}
		}
	}
	return e
}

// Func returns the summary of fn, nil when fn has no body in the
// module.
func (e *Engine) Func(fn *types.Func) *FuncFacts { return e.facts[fn] }

// sortsDirectly reports a sort call in body itself, outside function
// literals and go statements. Skipping a go statement's operands too
// can only miss a sort, which makes detrand report, never stay silent.
func sortsDirectly(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			found = found || isSortCall(info, n)
		}
		return !found
	})
	return found
}

// resultRanges computes the direct Ranges fact of one declared
// function: per result position, the union over every top-level return
// statement of the result expression's integer constant value (go/types
// folds `MaxSearchHorizon / 2` and friends for us), Top where any
// return yields a non-constant. Naked returns and single-call tuple
// returns defeat the per-position mapping, so they drop the whole fact,
// as does a function that bounds none of its results.
func resultRanges(info *types.Info, decl *ast.FuncDecl) []interval.Interval {
	results := decl.Type.Results
	if results == nil || len(results.List) == 0 {
		return nil
	}
	nres := 0
	for _, field := range results.List {
		if n := len(field.Names); n > 0 {
			nres += n
		} else {
			nres++
		}
	}

	ranges := make([]interval.Interval, nres)
	for i := range ranges {
		ranges[i] = interval.Empty() // no return seen yet
	}
	ok := true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a closure's returns are its own
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) != nres {
			ok = false // naked return or tuple-call return
			return false
		}
		for i, expr := range ret.Results {
			ranges[i] = interval.Union(ranges[i], constInterval(info, expr))
		}
		return true
	})
	if !ok {
		return nil
	}
	bounded := false
	for i := range ranges {
		if ranges[i].IsEmpty() { // no reachable return statement at all
			ranges[i] = interval.Top()
		}
		if !ranges[i].IsTop() {
			bounded = true
		}
	}
	if !bounded {
		return nil
	}
	return ranges
}

// constInterval returns the point interval of an integer constant
// expression, Top otherwise.
func constInterval(info *types.Info, expr ast.Expr) interval.Interval {
	tv, found := info.Types[expr]
	if !found || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return interval.Top()
	}
	if v, exact := constant.Int64Val(tv.Value); exact {
		return interval.Point(v)
	}
	return interval.Top() // out of int64 range (big untyped / uint64)
}

// Dump renders every summary as deterministic, indented JSON keyed by
// function key.
func (e *Engine) Dump() []byte {
	type factsJSON struct {
		Sorts  bool     `json:"sorts,omitempty"`
		Ranges []string `json:"ranges,omitempty"`
	}
	out := map[string]factsJSON{}
	for _, n := range e.Graph.Nodes {
		f := e.facts[n.Func]
		fj := factsJSON{Sorts: f.Sorts}
		for _, r := range f.Ranges {
			fj.Ranges = append(fj.Ranges, r.String())
		}
		out[n.Key()] = fj
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	return append(b, '\n')
}

// sortFuncs lists the order-normalizing functions of package sort;
// anything in slices starting with "Sort" counts too.
var sortFuncs = map[string]bool{
	"Ints": true, "Strings": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
}

// isSortCall reports a call to a sorting routine.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return sortFuncs[fn.Name()]
	case "slices":
		return len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort"
	}
	return false
}
