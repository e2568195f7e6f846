package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Detrand guards the reproducibility of the paper's figures: every
// table and plot must be a pure function of the configured seed. Inside
// the scoped packages (detrandScope) it flags:
//
//   - wall-clock reads (time.Now, time.Since, time.Until);
//   - the global math/rand functions (rand.Intn, rand.Shuffle, ...),
//     which draw from a process-global source — construct a seeded
//     *rand.Rand with rand.New(rand.NewSource(seed)) instead;
//   - iteration over a map that does anything other than collect the
//     keys or values for sorting, because map order changes run to run.
var Detrand = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "flags wall-clock, unseeded-randomness and map-order dependence in packages with pinned output",
	Run:  runDetrand,
}

// detrandScope lists the package-path fragments the analyzer applies
// to: the packages whose output a golden, out/ or a byte-identical
// check pins, and the tools that print it. Four packages it would flag
// stay out on purpose. internal/loadgen, internal/server and
// cmd/rtwormload read the wall clock because measuring time is their
// job (18 reads; loadgen's one map range only fills a set).
// cmd/benchjson's two map ranges write into maps keyed by the range
// key, so their order does not matter. The rest of the packages left
// out feed no pinned output.
var detrandScope = []string{
	"internal/sim", "internal/exp", "internal/core", "internal/eventsim",
	"internal/mc", "internal/explore", "internal/workload", "internal/metrics",
	"cmd/reproduce", "cmd/tables", "cmd/figures", "cmd/crosscheck",
	"cmd/netsim", "cmd/rtwmc", "cmd/rtwexplore",
}

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
		if !orderInsensitiveStmt(rng, stmt) {
			pass.Reportf(rng.Pos(),
				"map iteration order is nondeterministic; sort the keys first (collect-then-sort) or justify with a directive")
			return
		}
	}
}

// orderInsensitiveStmt reports whether stmt keeps the map-range result
// independent of iteration order.
func orderInsensitiveStmt(rng *ast.RangeStmt, stmt ast.Stmt) bool {
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
		fun, ok := call.Fun.(*ast.Ident)
		return ok && fun.Name == "delete"
	}
	return false
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
