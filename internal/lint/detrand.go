package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Detrand guards the reproducibility of the paper's figures: every
// table and plot must be a pure function of the configured seed. Inside
// the scoped packages (internal/sim, internal/exp, internal/core) it
// flags:
//
//   - wall-clock reads (time.Now, time.Since, time.Until);
//   - the global math/rand functions (rand.Intn, rand.Shuffle, ...),
//     which draw from a process-global source — construct a seeded
//     *rand.Rand with rand.New(rand.NewSource(seed)) instead;
//   - iteration over a map that does anything other than collect the
//     keys or values for sorting, because map order changes run to run.
var Detrand = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "flags wall-clock, unseeded-randomness and map-order dependence in sim/exp/core",
	Run:  runDetrand,
}

// detrandScope lists the package-path fragments the analyzer applies
// to. The other packages are either pure analysis on ints (no entropy
// to leak) or CLI wiring whose output is covered by golden tests.
var detrandScope = []string{"internal/sim", "internal/exp", "internal/core"}

// timeFuncs are the wall-clock reads that break run-to-run stability.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandCtors are the math/rand functions that are fine to call:
// they build or feed an explicitly seeded generator rather than drawing
// from the process-global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func inDetrandScope(path string) bool {
	for _, frag := range detrandScope {
		if path == frag || strings.HasPrefix(path, frag+"/") ||
			strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/") {
			return true
		}
	}
	return false
}

func runDetrand(pass *analysis.Pass) error {
	if !inDetrandScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDetrandSelector(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDetrandSelector flags time.Now/Since/Until and global math/rand
// draws.
func checkDetrandSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if timeFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s is nondeterministic; derive timing from simulation cycles or pass a timestamp in",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandCtors[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global rand.%s draws from the process-wide source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
				fn.Name())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map unless the body
// only collects the keys or values into a slice — the sort-then-iterate
// idiom this codebase uses (see sim/stats.go) — or only performs
// order-insensitive accumulation (x += v, counters, map writes or
// deletes).
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	for _, stmt := range rng.Body.List {
		if !orderInsensitiveStmt(pass, rng, stmt) {
			pass.Reportf(rng.Pos(),
				"map iteration order is nondeterministic; sort the keys first (collect-then-sort) or justify with a directive")
			return
		}
	}
}

// orderInsensitiveStmt reports whether stmt keeps the map-range result
// independent of iteration order.
func orderInsensitiveStmt(pass *analysis.Pass, rng *ast.RangeStmt, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok.String() {
		case "+=", "|=", "&=": // commutative accumulation
			return true
		case "=":
		default:
			return false
		}
		// `keys = append(keys, k)` (or the value): the collect-for-sort
		// idiom. Anything fancier — appending computed records — bakes
		// the iteration order into the slice. The destination may be a
		// selector chain (g.Nodes = append(g.Nodes, id)).
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
			return false
		}
		if !sameLvalue(s.Lhs[0], call.Args[0]) {
			return false
		}
		elem, ok := call.Args[1].(*ast.Ident)
		return ok && isRangeVar(rng, elem)
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "delete" {
			return true
		}
		return calleeSorts(pass, call)
	}
	return false
}

// calleeSorts reports whether the call targets a module-local function
// whose summary carries the Sorts fact: a helper that accumulates the
// range variables and sorts before emission keeps the result
// order-independent even though the collection happens in the callee.
// Without the summary the allowlist only recognizes sorting done
// inline after the loop.
func calleeSorts(pass *analysis.Pass, call *ast.CallExpr) bool {
	if pass.Module == nil {
		return false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	facts := moduleEngine(pass).Func(fn)
	return facts != nil && facts.Sorts
}

// sameLvalue reports whether a and b are the same identifier or the
// same selector chain (x.F.G), the shapes append destinations take.
func sameLvalue(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameLvalue(a.X, b.X)
	}
	return false
}

// isRangeVar reports whether id is the range statement's key or value
// variable.
func isRangeVar(rng *ast.RangeStmt, id *ast.Ident) bool {
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if vid, ok := v.(*ast.Ident); ok && vid.Name == id.Name {
			return true
		}
	}
	return false
}
