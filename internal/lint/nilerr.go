package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
	"repro/internal/lint/dataflow"
)

// Nilerr flags uses of a call's result value on a path where the error
// returned alongside it was never checked: `v, err := f(); use(v)`
// before any inspection of err. On an error, this module's functions
// return zero-valued results that carry no meaning (CalU returning 0
// means "no bound", not "bound zero"), so consuming the value first is
// a correctness bug the AST-level errdrop check cannot see — it needs
// path knowledge, which the CFG/dataflow engine provides.
//
// Tracking is per assignment site, not per variable: re-assigning err
// with a fresh call leaves values validated under the previous err
// checked. "Checking" is any appearance of the error variable — an
// `err != nil` comparison, passing it to a helper, wrapping it,
// returning it next to the value — so only a value consumed while its
// error is genuinely untouched is reported. Scoped to calls into this
// module (repro/...), like errdrop.
var Nilerr = &analysis.Analyzer{
	Name: "nilerr",
	Doc:  "detects use of a result value before its accompanying error is checked",
	Run:  runNilerr,
}

// errSite is one tracked `..., err := f()` assignment.
type errSite struct {
	obj    types.Object // the error variable
	callee string       // display name of the called function
	pos    token.Pos
	name   string // error variable name
}

type nilerrPass struct {
	pass   *analysis.Pass
	sites  []errSite
	byObj  map[types.Object][]int
	valIDs map[types.Object]int
	vals   []types.Object
}

func runNilerr(pass *analysis.Pass) error {
	np := &nilerrPass{
		pass:   pass,
		byObj:  map[types.Object][]int{},
		valIDs: map[types.Object]int{},
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, fn := range cfg.FuncBodies(f) {
			np.analyze(fn)
		}
	}
	return nil
}

func (np *nilerrPass) internVal(obj types.Object) int {
	if id, ok := np.valIDs[obj]; ok {
		return id
	}
	id := len(np.vals)
	np.valIDs[obj] = id
	np.vals = append(np.vals, obj)
	return id
}

func (np *nilerrPass) internSite(obj types.Object, callee string, pos token.Pos, name string) int {
	for _, i := range np.byObj[obj] {
		if np.sites[i].pos == pos {
			return i
		}
	}
	i := len(np.sites)
	np.sites = append(np.sites, errSite{obj: obj, callee: callee, pos: pos, name: name})
	np.byObj[obj] = append(np.byObj[obj], i)
	return i
}

// errFact is (unchecked error sites, value guards) encoded as a
// canonical string: "u1,u3|v2>s1,v4>s3".
type errFact string

func decodeErrFact(f errFact) (unchecked map[int]bool, guards map[int]int) {
	unchecked, guards = map[int]bool{}, map[int]int{}
	s := string(f)
	if s == "" {
		return
	}
	u, g, _ := strings.Cut(s, "|")
	if u != "" {
		for _, p := range strings.Split(u, ",") {
			v, _ := strconv.Atoi(p)
			unchecked[v] = true
		}
	}
	if g != "" {
		for _, p := range strings.Split(g, ",") {
			a, b, _ := strings.Cut(p, ">")
			av, _ := strconv.Atoi(a)
			bv, _ := strconv.Atoi(b)
			guards[av] = bv
		}
	}
	return
}

func encodeErrFact(unchecked map[int]bool, guards map[int]int) errFact {
	us := make([]int, 0, len(unchecked))
	for v := range unchecked {
		us = append(us, v)
	}
	sort.Ints(us)
	gs := make([]int, 0, len(guards))
	for v := range guards {
		gs = append(gs, v)
	}
	sort.Ints(gs)
	var sb strings.Builder
	for i, v := range us {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	sb.WriteByte('|')
	for i, v := range gs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte('>')
		sb.WriteString(strconv.Itoa(guards[v]))
	}
	out := sb.String()
	if out == "|" {
		return ""
	}
	return errFact(out)
}

type errLattice struct{ np *nilerrPass }

func (errLattice) Entry() errFact { return "" }

func (l errLattice) Transfer(n ast.Node, in errFact) errFact {
	return l.np.step(n, in, nil)
}

func (errLattice) Join(a, b errFact) errFact {
	ua, ga := decodeErrFact(a)
	ub, gb := decodeErrFact(b)
	for v := range ub {
		ua[v] = true
	}
	for k, v := range gb {
		ga[k] = v
	}
	return encodeErrFact(ua, ga)
}

func (errLattice) Equal(a, b errFact) bool { return a == b }

// tracked recognises `v1, ..., err := f(...)` where f is an in-module
// call returning an error among its results, and returns the error
// ident's index and the callee name.
func (np *nilerrPass) tracked(as *ast.AssignStmt) (callee string, errIdx int, ok bool) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 2 {
		return "", 0, false
	}
	call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	name, sig := inModuleCallee(np.pass, call)
	if sig == nil {
		return "", 0, false
	}
	idx := errorResult(sig)
	if idx < 0 || sig.Results().Len() != len(as.Lhs) {
		return "", 0, false
	}
	return name, idx, true
}

// step is the shared transfer function; emit (non-nil during the
// reporting replay) receives (identifier used, site id) for each use of
// a value whose error is unchecked.
func (np *nilerrPass) step(n ast.Node, in errFact, emit func(id *ast.Ident, site int)) errFact {
	unchecked, guards := decodeErrFact(in)

	// Collect this node's tracked assignments and every assignment LHS
	// identifier (excluded from the use scans).
	type assign struct {
		as     *ast.AssignStmt
		callee string
		errIdx int
	}
	var assigns []assign
	lhs := map[*ast.Ident]bool{}
	var reassigned []types.Object
	cfg.Inspect(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if id, isID := ast.Unparen(l).(*ast.Ident); isID {
				lhs[id] = true
				if obj := np.objOf(id); obj != nil {
					reassigned = append(reassigned, obj)
				}
			}
		}
		if callee, errIdx, ok := np.tracked(as); ok {
			assigns = append(assigns, assign{as, callee, errIdx})
		}
		return true
	})

	// Pass A: uses of error variables mark their sites checked. Runs
	// before the value pass so `return v, err` propagates both without
	// a report.
	cfg.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || lhs[id] {
			return true
		}
		obj := np.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		for _, s := range np.byObj[obj] {
			delete(unchecked, s)
		}
		return true
	})

	// Pass B: uses of guarded values while their site is unchecked.
	cfg.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || lhs[id] {
			return true
		}
		obj := np.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		vid, ok := np.valIDs[obj]
		if !ok {
			return true
		}
		site, guarded := guards[vid]
		if !guarded || !unchecked[site] {
			return true
		}
		if emit != nil {
			emit(id, site)
		}
		delete(guards, vid) // one report per value per path
		return true
	})

	// Re-assignment invalidates stale guards on the target variables.
	for _, obj := range reassigned {
		if vid, ok := np.valIDs[obj]; ok {
			delete(guards, vid)
		}
	}

	// Finally, apply the tracked assignments: the error site becomes
	// unchecked and every sibling result is guarded by it.
	for _, a := range assigns {
		errID, ok := ast.Unparen(a.as.Lhs[a.errIdx]).(*ast.Ident)
		if !ok || errID.Name == "_" {
			continue // blank error: errdrop's finding, not a flow question
		}
		errObj := np.objOf(errID)
		if errObj == nil {
			continue
		}
		site := np.internSite(errObj, a.callee, a.as.Pos(), errID.Name)
		unchecked[site] = true
		for i, l := range a.as.Lhs {
			if i == a.errIdx {
				continue
			}
			id, isID := ast.Unparen(l).(*ast.Ident)
			if !isID || id.Name == "_" {
				continue
			}
			obj := np.objOf(id)
			if obj == nil || types.Identical(obj.Type(), errorType) {
				continue
			}
			guards[np.internVal(obj)] = site
		}
	}
	return encodeErrFact(unchecked, guards)
}

func (np *nilerrPass) objOf(id *ast.Ident) types.Object {
	if obj := np.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return np.pass.TypesInfo.Uses[id]
}

// analyze runs the dataflow over one function frame and replays reached
// blocks for reports.
func (np *nilerrPass) analyze(fn cfg.Func) {
	g := cfg.New(fn.Body)
	res := dataflow.Forward[errFact](g, errLattice{np})
	for _, b := range g.Blocks {
		if !res.Reached[b.Index] {
			continue
		}
		fact := res.In[b.Index]
		for _, n := range b.Nodes {
			fact = np.step(n, fact, func(id *ast.Ident, site int) {
				s := np.sites[site]
				p := np.pass.Fset.Position(s.pos)
				np.pass.Reportf(id.Pos(),
					"%s is used before checking %s, the error returned by %s at %s:%d (on an error the value is meaningless)",
					id.Name, s.name, s.callee, filepath.Base(p.Filename), p.Line)
			})
		}
	}
}
