// env.go runs the interval domain through the dataflow engine: Env is
// the per-program-point fact (one interval + cycle-taint bit per
// tracked variable, plus division-guard pair facts), EnvLattice is the
// dataflow.Lattice instance with edge refinement and widening, and
// Analyze is the per-function driver with the narrowing post-pass.
//
// Tracked variables are local signed-integer variables (including
// named types whose underlying type is a signed integer) that are
// never address-taken and never assigned inside a function literal —
// anything else can change behind the analysis's back, so it always
// reads as its type range. Unsigned expressions are never computed
// with: int64 interval arithmetic models signed wrap, not unsigned
// wrap, so only the sign bound [0, +inf] survives. `int` is assumed
// 64-bit (documented in docs/LINTING.md); on a 32-bit platform the
// bounds would be conservative in the wrong direction, which is why
// the analyzers phrase findings as "may overflow int64".
//
// Division-guard pairs are the one relational fact the domain keeps:
// inside the false edge of `if a > C/b` (or the true edge of
// `a <= C/b`), the pair (a, b) is recorded with bound hi(C), and a
// later `a * b` — the repo's clamp idiom, see core.CalUSearchCap — is
// bounded by hi(C) instead of the hopeless product of two unbounded
// intervals. The fact is sound for a ≥ 0, b ≥ 1 (checked at use) and
// dies when a, or any variable of b, is reassigned.
package interval

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/lint/cfg"
	"repro/internal/lint/dataflow"
)

// cycleWords are the name fragments that mark a quantity as
// cycle-derived — the paper's periods, deadlines, latencies, horizons,
// and flit counts. intoverflow only reports arithmetic whose operands
// carry this taint; index math and buffer-size arithmetic stay silent
// however unbounded they are.
var cycleWords = []string{"period", "deadline", "latency", "horizon", "cycle", "flit", "slack"}

// CycleName reports whether an identifier names a cycle quantity.
func CycleName(name string) bool {
	l := strings.ToLower(name)
	for _, w := range cycleWords {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// VarFact is the per-variable fact: the enclosure and the cycle taint.
type VarFact struct {
	IV    Interval
	Cycle bool
}

// guardKey identifies one division-guard pair: the guarded variable
// and the canonical form of its co-factor expression (source text plus
// the declaration positions of every identifier, so a shadowing
// redeclaration never matches).
type guardKey struct {
	x *types.Var
	b string
}

// guardFact carries the product bound and the variables whose
// reassignment kills the guard.
type guardFact struct {
	bound int64
	deps  []*types.Var
}

// exprFact is a branch-refined bound on a pure non-identifier
// expression (a field read, an element read, a len call): the edge
// `elems[i].Period > margin` proves that exact selector ≥ margin+1
// until something that could rewrite it executes. Facts are keyed by
// canonExpr and killed on a write to any dep, on any store through a
// non-identifier lvalue, and on any call that may touch the heap —
// the lifetime is intentionally a handful of statements, which is all
// the max-accumulate idiom (`if e.Period > margin { margin = e.Period }`)
// needs.
type exprFact struct {
	iv   Interval
	deps []*types.Var
}

// Env is the dataflow fact: immutable after construction (the lattice
// clones maps on every change, per the dataflow engine's contract).
// The bottom Env is the fact of an infeasible edge — a refinement that
// emptied some variable's interval — and is the identity of Join.
type Env struct {
	bottom bool
	vars   map[*types.Var]VarFact
	guards map[guardKey]guardFact
	exprs  map[string]exprFact
}

// Bottom reports whether the env marks an infeasible program point.
func (e Env) Bottom() bool { return e.bottom }

// Var returns the fact of v, when tracked and currently bound.
func (e Env) Var(v *types.Var) (VarFact, bool) {
	f, ok := e.vars[v]
	return f, ok
}

// EnvLattice is the dataflow lattice of one function body. Construct
// with NewEnvLattice; the zero value is not usable.
type EnvLattice struct {
	Info *types.Info

	untracked map[*types.Var]bool
	params    []*types.Var
	results   []*types.Var
}

// NewEnvLattice prepares the lattice for one function: node is the
// *ast.FuncDecl or *ast.FuncLit, body its block. The prepass computes
// the untracked set (address-taken or closure-assigned variables).
func NewEnvLattice(info *types.Info, node ast.Node, body *ast.BlockStmt) *EnvLattice {
	l := &EnvLattice{Info: info, untracked: map[*types.Var]bool{}}

	var ftype *ast.FuncType
	var recv *ast.FieldList
	switch n := node.(type) {
	case *ast.FuncDecl:
		ftype, recv = n.Type, n.Recv
	case *ast.FuncLit:
		ftype = n.Type
	}
	addFields := func(fl *ast.FieldList, into *[]*types.Var) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					*into = append(*into, v)
				}
			}
		}
	}
	addFields(recv, &l.params)
	if ftype != nil {
		addFields(ftype.Params, &l.params)
		addFields(ftype.Results, &l.results)
	}

	l.computeUntracked(body)
	return l
}

// computeUntracked marks variables whose value the analysis cannot
// follow: address-taken anywhere, or assigned inside a function
// literal (the closure may run at any time — another goroutine, a
// deferred call, a stored callback).
func (l *EnvLattice) computeUntracked(body *ast.BlockStmt) {
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := l.objOf(id).(*types.Var); ok {
				l.untracked[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					for _, lhs := range m.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(m.X)
				case *ast.UnaryExpr:
					if m.Op == token.AND {
						mark(m.X)
					}
				case *ast.RangeStmt:
					if m.Key != nil {
						mark(m.Key)
					}
					if m.Value != nil {
						mark(m.Value)
					}
				}
				return true
			})
			return false // the inner walk covered nested literals too
		}
		return true
	})
}

func (l *EnvLattice) objOf(id *ast.Ident) types.Object {
	if obj := l.Info.Uses[id]; obj != nil {
		return obj
	}
	return l.Info.Defs[id]
}

// tracked reports whether v's value is followed in the env: a signed
// integer variable that is neither address-taken nor closure-assigned.
func (l *EnvLattice) tracked(v *types.Var) bool {
	if v == nil || l.untracked[v] {
		return false
	}
	b, ok := v.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 && b.Info()&types.IsUnsigned == 0
}

// observable reports whether reassignments of v are all visible to the
// analysis (used for guard dependencies, which include non-integer
// variables like the slice under a len()).
func (l *EnvLattice) observable(v *types.Var) bool { return v != nil && !l.untracked[v] }

// typeRangeOf returns the enclosure every value of t satisfies.
func typeRangeOf(t types.Type) Interval {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return Top()
	}
	if b.Info()&types.IsUnsigned != 0 {
		switch b.Kind() {
		case types.Uint8:
			return Of(0, 1<<8-1)
		case types.Uint16:
			return Of(0, 1<<16-1)
		case types.Uint32:
			return Of(0, 1<<32-1)
		default: // uint, uint64, uintptr: hi rail = unbounded above
			return Of(0, MaxV)
		}
	}
	switch b.Kind() {
	case types.Int8:
		return TypeRange(8)
	case types.Int16:
		return TypeRange(16)
	case types.Int32:
		return TypeRange(32)
	default: // int, int64: 64-bit platforms assumed
		return Top()
	}
}

// TypeBits returns the bit width of an integer type (64 for int/uint,
// as documented), or 0 when t is not an integer type. shiftwidth uses
// it for the operand width.
func TypeBits(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

// --- lattice interface ------------------------------------------------------

// Entry binds every tracked parameter to its type range (cycle-tainted
// when its name says so) and every tracked named result to zero.
func (l *EnvLattice) Entry() Env {
	vars := map[*types.Var]VarFact{}
	for _, v := range l.params {
		if l.tracked(v) {
			vars[v] = VarFact{typeRangeOf(v.Type()), CycleName(v.Name())}
		}
	}
	for _, v := range l.results {
		if l.tracked(v) {
			vars[v] = VarFact{Point(0), CycleName(v.Name())}
		}
	}
	return Env{vars: vars}
}

func (l *EnvLattice) Equal(a, b Env) bool {
	if a.bottom != b.bottom {
		return false
	}
	if a.bottom {
		return true
	}
	if len(a.vars) != len(b.vars) || len(a.guards) != len(b.guards) || len(a.exprs) != len(b.exprs) {
		return false
	}
	for v, fa := range a.vars {
		if fb, ok := b.vars[v]; !ok || fa != fb {
			return false
		}
	}
	for k, ga := range a.guards {
		if gb, ok := b.guards[k]; !ok || ga.bound != gb.bound {
			return false
		}
	}
	for k, ea := range a.exprs {
		if eb, ok := b.exprs[k]; !ok || ea.iv != eb.iv {
			return false
		}
	}
	return true
}

// Join unions the intervals of variables bound on both paths (a
// variable bound on one path only is out of scope on the other and is
// dropped), ors the taints, and keeps the guards both paths agree on
// at the weaker bound. Bottom is the identity.
func (l *EnvLattice) Join(a, b Env) Env {
	if a.bottom {
		return b
	}
	if b.bottom {
		return a
	}
	vars := make(map[*types.Var]VarFact, len(a.vars))
	for v, fa := range a.vars {
		if fb, ok := b.vars[v]; ok {
			vars[v] = VarFact{Union(fa.IV, fb.IV), fa.Cycle || fb.Cycle}
		}
	}
	var guards map[guardKey]guardFact
	for k, ga := range a.guards {
		gb, ok := b.guards[k]
		if !ok {
			continue
		}
		if guards == nil {
			guards = map[guardKey]guardFact{}
		}
		if gb.bound > ga.bound {
			ga.bound = gb.bound
		}
		guards[k] = ga
	}
	var exprs map[string]exprFact
	for k, ea := range a.exprs {
		eb, ok := b.exprs[k]
		if !ok {
			continue
		}
		if exprs == nil {
			exprs = map[string]exprFact{}
		}
		exprs[k] = exprFact{Union(ea.iv, eb.iv), ea.deps}
	}
	return Env{vars: vars, guards: guards, exprs: exprs}
}

// Widen widens each variable's interval against the previous round's
// (dataflow.WidenLattice); taint grows monotonically and guards keep
// only the agreeing pairs, so every component stabilizes.
func (l *EnvLattice) Widen(prev, next Env) Env {
	if prev.bottom {
		return next
	}
	if next.bottom {
		return prev
	}
	vars := make(map[*types.Var]VarFact, len(next.vars))
	for v, fn := range next.vars {
		if fp, ok := prev.vars[v]; ok {
			vars[v] = VarFact{Widen(fp.IV, fn.IV), fp.Cycle || fn.Cycle}
		} else {
			vars[v] = fn
		}
	}
	var guards map[guardKey]guardFact
	for k, gn := range next.guards {
		gp, ok := prev.guards[k]
		if !ok {
			continue
		}
		if guards == nil {
			guards = map[guardKey]guardFact{}
		}
		if gp.bound > gn.bound {
			gn.bound = gp.bound
		}
		guards[k] = gn
	}
	var exprs map[string]exprFact
	for k, en := range next.exprs {
		ep, ok := prev.exprs[k]
		if !ok {
			continue
		}
		if exprs == nil {
			exprs = map[string]exprFact{}
		}
		exprs[k] = exprFact{Widen(ep.iv, en.iv), en.deps}
	}
	return Env{vars: vars, guards: guards, exprs: exprs}
}

// --- transfer ---------------------------------------------------------------

// Transfer applies one CFG node. Expression nodes (branch conditions,
// switch tags) change nothing; assignments, declarations, inc/dec, and
// range headers rebind variables.
func (l *EnvLattice) Transfer(n ast.Node, in Env) Env {
	if in.bottom {
		return in
	}
	out := in
	switch n := n.(type) {
	case *ast.AssignStmt:
		out = l.assign(in, n)
	case *ast.IncDecStmt:
		iv, _, _ := l.BinOp(in, token.ADD, n.X, nil)
		if n.Tok == token.DEC {
			iv, _, _ = l.BinOp(in, token.SUB, n.X, nil)
		}
		out = l.setExpr(in, n.X, func(old VarFact) VarFact { return VarFact{iv, old.Cycle} })
	case *ast.DeclStmt:
		out = l.declare(in, n)
	case *ast.RangeStmt:
		out = l.rangeHead(in, n)
	}
	// Expression facts describe heap reads; any construct that may
	// rewrite the heap — a real call, a store through a non-identifier
	// lvalue — invalidates all of them. The node's own evaluation above
	// happened under the pre-mutation env, which matches Go's order
	// (operands evaluate before the call body / the store).
	if len(out.exprs) != 0 && l.mutatesHeap(n) {
		out = Env{vars: out.vars, guards: out.guards}
	}
	return out
}

// mutatesHeap reports whether executing n may rewrite memory an
// expression fact reads: a call that is not a conversion or a pure
// builtin, a store through a field/index/deref, or an inc/dec of one.
func (l *EnvLattice) mutatesHeap(n ast.Node) bool {
	mutates := false
	ast.Inspect(n, func(m ast.Node) bool {
		if mutates {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if tv, ok := l.Info.Types[m.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if _, builtin := l.objOf(id).(*types.Builtin); builtin {
					switch id.Name {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			mutates = true
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					mutates = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if _, ok := ast.Unparen(m.X).(*ast.Ident); !ok {
				mutates = true
				return false
			}
		}
		return true
	})
	return mutates
}

// TransferEdge refines the fact along a branch edge (dataflow.
// EdgeLattice): cfg.Branch says which polarity this edge carries.
func (l *EnvLattice) TransferEdge(from, to *cfg.Block, out Env) Env {
	if out.bottom || from.Branch == nil {
		return out
	}
	switch to {
	case from.Branch.True:
		return l.refine(out, from.Branch.Cond, true)
	case from.Branch.False:
		return l.refine(out, from.Branch.Cond, false)
	}
	return out
}

// setVar rebinds one tracked variable, killing every guard and
// expression fact that depends on it. Returns in unchanged when v is
// not tracked (but still kills facts: untracked vars never enter
// either map — deps must be observable — so the kill is a no-op then).
func (l *EnvLattice) setVar(in Env, v *types.Var, f VarFact) Env {
	if !l.tracked(v) {
		return l.killFacts(in, v)
	}
	if f.IV.IsEmpty() {
		f.IV = typeRangeOf(v.Type())
	}
	vars := make(map[*types.Var]VarFact, len(in.vars)+1)
	for k, old := range in.vars {
		vars[k] = old
	}
	vars[v] = f
	out := Env{vars: vars, guards: in.guards, exprs: in.exprs}
	return l.killFacts(out, v)
}

// killFacts drops the guards and expression facts invalidated by a
// write to v.
func (l *EnvLattice) killFacts(in Env, v *types.Var) Env {
	if v == nil {
		return in
	}
	depsHit := func(deps []*types.Var) bool {
		for _, d := range deps {
			if d == v {
				return true
			}
		}
		return false
	}
	hit := false
	for k, g := range in.guards {
		if k.x == v || depsHit(g.deps) {
			hit = true
			break
		}
	}
	if !hit {
		for _, f := range in.exprs {
			if depsHit(f.deps) {
				hit = true
				break
			}
		}
	}
	if !hit {
		return in
	}
	guards := map[guardKey]guardFact{}
	for k, g := range in.guards {
		if k.x != v && !depsHit(g.deps) {
			guards[k] = g
		}
	}
	var exprs map[string]exprFact
	for k, f := range in.exprs {
		if !depsHit(f.deps) {
			if exprs == nil {
				exprs = map[string]exprFact{}
			}
			exprs[k] = f
		}
	}
	return Env{vars: in.vars, guards: guards, exprs: exprs}
}

// setExpr rebinds the variable behind an lvalue expression when it is
// a tracked identifier; other lvalues (fields, indexes, derefs) change
// no tracked state.
func (l *EnvLattice) setExpr(in Env, lhs ast.Expr, update func(VarFact) VarFact) Env {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return in
	}
	v, _ := l.objOf(id).(*types.Var)
	if v == nil {
		return in
	}
	old, ok := in.vars[v]
	if !ok {
		old = VarFact{typeRangeOf(v.Type()), CycleName(v.Name())}
	}
	return l.setVar(in, v, update(old))
}

func (l *EnvLattice) assign(in Env, n *ast.AssignStmt) Env {
	switch n.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(n.Lhs) == len(n.Rhs) {
			// Evaluate every rhs under the OLD env first: a, b = b, a.
			facts := make([]VarFact, len(n.Rhs))
			for i, rhs := range n.Rhs {
				iv, taint := l.Eval(in, rhs)
				facts[i] = VarFact{iv, taint}
			}
			out := in
			for i, lhs := range n.Lhs {
				f := facts[i]
				out = l.setExpr(out, lhs, func(VarFact) VarFact { return f })
			}
			return out
		}
		// Tuple form: x, y := f() / m[k] / v.(T). Each lhs takes its
		// static type range.
		taint := false
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			taint = l.callTaint(call)
		}
		out := in
		for _, lhs := range n.Lhs {
			out = l.setExpr(out, lhs, func(VarFact) VarFact {
				iv := Top()
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, _ := l.objOf(id).(*types.Var); v != nil {
						iv = typeRangeOf(v.Type())
					}
				}
				return VarFact{iv, taint}
			})
		}
		return out
	default:
		// Op-assign: x op= y is x = x op y.
		op, ok := assignOps[n.Tok]
		if !ok {
			return in
		}
		iv, _, taint := l.BinOp(in, op, n.Lhs[0], n.Rhs[0])
		return l.setExpr(in, n.Lhs[0], func(old VarFact) VarFact {
			return VarFact{iv, taint || old.Cycle}
		})
	}
}

var assignOps = map[token.Token]token.Token{
	token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
	token.REM_ASSIGN: token.REM, token.SHL_ASSIGN: token.SHL,
	token.SHR_ASSIGN: token.SHR, token.AND_ASSIGN: token.AND,
	token.OR_ASSIGN: token.OR, token.XOR_ASSIGN: token.XOR,
	token.AND_NOT_ASSIGN: token.AND_NOT,
}

func (l *EnvLattice) declare(in Env, n *ast.DeclStmt) Env {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return in
	}
	out := in
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			f := VarFact{Point(0), false} // zero value
			if len(vs.Values) == len(vs.Names) {
				iv, taint := l.Eval(out, vs.Values[i])
				f = VarFact{iv, taint}
			} else if len(vs.Values) > 0 {
				f = VarFact{Top(), false} // tuple initializer
			}
			if v, ok := l.Info.Defs[name].(*types.Var); ok {
				out = l.setVar(out, v, f)
			}
		}
	}
	return out
}

// rangeHead binds the key/value variables of a range statement. A
// range over an int n (go 1.22) bounds the key by [0, n-1]; indexable
// containers bound the key below by 0.
func (l *EnvLattice) rangeHead(in Env, n *ast.RangeStmt) Env {
	out := in
	set := func(e ast.Expr, f VarFact) {
		if e == nil {
			return
		}
		// A cycle-named binding taints like a cycle-named parameter:
		// `for _, period := range periods` carries the taint even
		// though the slice elements themselves are anonymous.
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && CycleName(id.Name) {
			f.Cycle = true
		}
		out = l.setExpr(out, e, func(VarFact) VarFact { return f })
	}
	xt := l.Info.TypeOf(n.X)
	var key, val VarFact
	key = VarFact{Top(), false}
	val = VarFact{Top(), false}
	if xt != nil {
		switch u := xt.Underlying().(type) {
		case *types.Basic: // range over int
			iv, taint := l.Eval(in, n.X)
			hi := dec1(iv.Hi)
			if hi < 0 {
				hi = 0 // empty range: the body never runs anyway
			}
			key = VarFact{Of(0, hi), taint}
		case *types.Slice:
			key = VarFact{Of(0, MaxV), false}
			val = VarFact{typeRangeOf(u.Elem()), false}
		case *types.Array:
			key = VarFact{Of(0, max64(u.Len()-1, 0)), false}
			val = VarFact{typeRangeOf(u.Elem()), false}
		case *types.Pointer:
			if arr, ok := u.Elem().Underlying().(*types.Array); ok {
				key = VarFact{Of(0, max64(arr.Len()-1, 0)), false}
				val = VarFact{typeRangeOf(arr.Elem()), false}
			}
		case *types.Map:
			key = VarFact{typeRangeOf(u.Key()), false}
			val = VarFact{typeRangeOf(u.Elem()), false}
		case *types.Chan:
			key = VarFact{typeRangeOf(u.Elem()), false}
		}
	}
	set(n.Key, key)
	set(n.Value, val)
	return out
}

// --- expression evaluation --------------------------------------------------

// Eval returns the enclosure of e under env and whether the value is
// cycle-tainted.
func (l *EnvLattice) Eval(env Env, e ast.Expr) (Interval, bool) {
	e = ast.Unparen(e)

	// go/types constant folding first: covers literals, const idents,
	// and whole constant expressions like MaxSearchHorizon/2.
	if tv, ok := l.Info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				return Point(v), nameTaint(e)
			}
		}
		return Top(), false
	}

	// Unsigned expressions: only the sign bound survives — the int64
	// arithmetic below models signed wrap, not unsigned wrap.
	if t := l.Info.TypeOf(e); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUnsigned != 0 {
			return Of(0, MaxV), false
		}
	}

	switch e := e.(type) {
	case *ast.Ident:
		v, _ := l.objOf(e).(*types.Var)
		if v == nil {
			return Top(), CycleName(e.Name)
		}
		if f, ok := env.vars[v]; ok {
			return f.IV, f.Cycle
		}
		return typeRangeOf(v.Type()), CycleName(e.Name)
	case *ast.SelectorExpr:
		return l.cycleRead(env, e, e.Sel.Name)
	case *ast.IndexExpr:
		name := ""
		switch x := ast.Unparen(e.X).(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			name = x.Sel.Name
		}
		return l.cycleRead(env, e, name)
	case *ast.BinaryExpr:
		iv, _, taint := l.BinOp(env, e.Op, e.X, e.Y)
		return iv, taint
	case *ast.UnaryExpr:
		x, taint := l.Eval(env, e.X)
		switch e.Op {
		case token.ADD:
			return x, taint
		case token.SUB:
			iv, _ := Neg(x)
			return iv, taint
		case token.XOR: // ^x == -(x+1)
			s, over := Add(x, Point(1))
			if over {
				return Top(), taint
			}
			iv, _ := Neg(s)
			return iv, taint
		}
		return l.fallback(e), taint
	case *ast.CallExpr:
		return l.evalCall(env, e)
	case *ast.StarExpr:
		return l.fallback(e), false
	}
	return l.fallback(e), false
}

// cycleRead evaluates a field or element read: a branch-refined
// expression fact when one is in force, the static type range
// otherwise, tagged with the cycle taint when the name says so. No
// assumption is made about the stored value — an earlier draft bounded
// cycle-named fields below by zero on the grounds that admission
// validates them, but that assumption also proved every `x.Period < 0`
// validation check dead and mis-modeled sentinel fields like
// FirstDeadlockCycle (−1 means "none"). Bounds must be earned from
// branches instead.
func (l *EnvLattice) cycleRead(env Env, e ast.Expr, name string) (Interval, bool) {
	return l.exprRefined(env, e, l.fallback(e)), CycleName(name)
}

// exprRefined intersects iv with the expression fact recorded for e,
// when one is in force.
func (l *EnvLattice) exprRefined(env Env, e ast.Expr, iv Interval) Interval {
	if len(env.exprs) == 0 {
		return iv
	}
	canon, _ := l.canonExpr(e)
	if f, ok := env.exprs[canon]; ok {
		if next := Intersect(iv, f.iv); !next.IsEmpty() {
			return next
		}
	}
	return iv
}

// fallback is the enclosure the static type alone guarantees.
func (l *EnvLattice) fallback(e ast.Expr) Interval {
	if t := l.Info.TypeOf(e); t != nil {
		return typeRangeOf(t)
	}
	return Top()
}

func (l *EnvLattice) evalCall(env Env, call *ast.CallExpr) (Interval, bool) {
	// Conversion: T(x).
	if tv, ok := l.Info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		tr := typeRangeOf(target)
		if len(call.Args) != 1 {
			return tr, false
		}
		x, taint := l.Eval(env, call.Args[0])
		// Signed→signed conversions preserve the value only when it
		// provably fits the target; otherwise Go wraps and only the
		// target's type range is sound. Unsigned sources already read
		// as [0, +inf], which a 64-bit signed target cannot trust
		// either (int64(u) flips large values negative) — the fits
		// check handles that uniformly since [0,+inf] never fits.
		if src := l.Info.TypeOf(call.Args[0]); src != nil {
			if sb, ok := src.Underlying().(*types.Basic); ok && sb.Info()&types.IsInteger != 0 {
				if !x.IsEmpty() && x.Lo >= tr.Lo && x.Hi <= tr.Hi {
					return x, taint
				}
			}
		}
		return tr, taint
	}

	// Builtins with known shapes.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := l.objOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap":
				return l.exprRefined(env, call, Of(0, MaxV)), false
			case "min", "max":
				if len(call.Args) == 0 {
					return Top(), false
				}
				iv, taint := l.Eval(env, call.Args[0])
				for _, a := range call.Args[1:] {
					av, at := l.Eval(env, a)
					taint = taint || at
					if id.Name == "min" {
						iv = Of(min64(iv.Lo, av.Lo), min64(iv.Hi, av.Hi))
					} else {
						iv = Of(max64(iv.Lo, av.Lo), max64(iv.Hi, av.Hi))
					}
				}
				return iv, taint
			}
			return l.fallback(call), false
		}
	}

	return l.fallback(call), l.callTaint(call)
}

// callTaint marks calls whose callee name is cycle-ish — a
// defaultHorizon() or Deadline() result is a cycle quantity.
func (l *EnvLattice) callTaint(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return CycleName(fun.Name)
	case *ast.SelectorExpr:
		return CycleName(fun.Sel.Name)
	}
	return false
}

// BinOp evaluates x OP y under env, returning the enclosure, whether
// the operation may overflow int64, and the combined cycle taint.
// Division-guard pairs absorb the clamp idiom for MUL. For IncDec
// callers ye may be nil (the implicit 1).
func (l *EnvLattice) BinOp(env Env, op token.Token, xe, ye ast.Expr) (Interval, bool, bool) {
	a, ta := l.Eval(env, xe)
	b, tb := Point(1), false
	if ye != nil {
		b, tb = l.Eval(env, ye)
	}
	taint := ta || tb
	switch op {
	case token.ADD:
		iv, over := Add(a, b)
		return iv, over, taint
	case token.SUB:
		iv, over := Sub(a, b)
		return iv, over, taint
	case token.MUL:
		if ye != nil {
			if iv, ok := l.guardedMul(env, xe, ye, a); ok {
				return iv, false, taint
			}
			if iv, ok := l.guardedMul(env, ye, xe, b); ok {
				return iv, false, taint
			}
		}
		iv, over := Mul(a, b)
		return iv, over, taint
	case token.QUO:
		iv, over := Div(a, b)
		return iv, over, taint
	case token.REM:
		return Rem(a, b), false, taint
	case token.SHL:
		iv, over := Shl(a, b)
		return iv, over, taint
	case token.SHR:
		return Shr(a, b), false, taint
	case token.AND:
		// Both non-negative: the result fits under either operand.
		if !a.IsEmpty() && !b.IsEmpty() && a.Lo >= 0 && b.Lo >= 0 {
			return Of(0, min64(a.Hi, b.Hi)), false, taint
		}
		return Top(), false, taint
	case token.AND_NOT:
		if !a.IsEmpty() && a.Lo >= 0 {
			return Of(0, a.Hi), false, taint
		}
		return Top(), false, taint
	}
	return Top(), false, taint
}

// guardedMul applies a recorded division-guard pair: with x ≤ C/b
// still in force (same b expression, no intervening writes) and x ≥ 0,
// the product x*b lies in [0, C] for every runtime value of b — b > 0
// gives x*b ≤ (C/b)*b ≤ C directly, b < 0 forces x = 0 (C/b ≤ 0 meets
// x ≥ 0), and b = 0 would have panicked in the guard itself.
func (l *EnvLattice) guardedMul(env Env, xe, ye ast.Expr, a Interval) (Interval, bool) {
	if len(env.guards) == 0 {
		return Interval{}, false
	}
	id, ok := ast.Unparen(xe).(*ast.Ident)
	if !ok {
		return Interval{}, false
	}
	v, _ := l.objOf(id).(*types.Var)
	if v == nil {
		return Interval{}, false
	}
	canon, _ := l.canonExpr(ye)
	g, ok := env.guards[guardKey{v, canon}]
	if !ok || a.IsEmpty() || a.Lo < 0 {
		return Interval{}, false
	}
	return Of(0, g.bound), true
}

// canonExpr renders an expression with the declaration position of
// every identifier appended, so a guard recorded against `len(elems)+1`
// matches exactly that expression over exactly those objects.
func (l *EnvLattice) canonExpr(e ast.Expr) (string, []*types.Var) {
	e = ast.Unparen(e)
	s := types.ExprString(e)
	var deps []*types.Var
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := l.objOf(id)
		if obj == nil {
			return true
		}
		s += "|" + strconv.FormatInt(int64(obj.Pos()), 10)
		if v, ok := obj.(*types.Var); ok {
			deps = append(deps, v)
		}
		return true
	})
	return s, deps
}

// --- branch refinement ------------------------------------------------------

// refine narrows env under "cond evaluates to truth". A contradiction
// (some interval empties) returns the bottom env.
func (l *EnvLattice) refine(env Env, cond ast.Expr, truth bool) Env {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return l.refine(env, c.X, !truth)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth { // both conjuncts hold
				return l.refine(l.refine(env, c.X, true), c.Y, true)
			}
		case token.LOR:
			if !truth { // both disjuncts fail
				return l.refine(l.refine(env, c.X, false), c.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return l.refineCmp(env, c, truth)
		}
	}
	return env
}

// negateCmp maps an operator to its logical negation.
var negateCmp = map[token.Token]token.Token{
	token.LSS: token.GEQ, token.GEQ: token.LSS,
	token.LEQ: token.GTR, token.GTR: token.LEQ,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
}

func (l *EnvLattice) refineCmp(env Env, c *ast.BinaryExpr, truth bool) Env {
	if !l.intExpr(c.X) || !l.intExpr(c.Y) {
		return env
	}
	op := c.Op
	if !truth {
		op = negateCmp[op]
	}
	a, _ := l.Eval(env, c.X)
	b, _ := l.Eval(env, c.Y)
	if a.IsEmpty() || b.IsEmpty() {
		return Env{bottom: true}
	}

	// Bounds each side must satisfy, with rail-absorbing ±1 so an
	// unbounded other side never fabricates a phantom MaxInt64-1.
	var xb, yb Interval
	switch op {
	case token.LSS: // x < y
		xb, yb = Of(MinV, dec1(b.Hi)), Of(inc1(a.Lo), MaxV)
	case token.LEQ:
		xb, yb = Of(MinV, b.Hi), Of(a.Lo, MaxV)
	case token.GTR: // x > y
		xb, yb = Of(inc1(b.Lo), MaxV), Of(MinV, dec1(a.Hi))
	case token.GEQ:
		xb, yb = Of(b.Lo, MaxV), Of(MinV, a.Hi)
	case token.EQL:
		xb, yb = b, a
	case token.NEQ:
		xb, yb = Top(), Top()
		if b.IsPoint() {
			if a.Lo == b.Lo && a.Lo != MaxV {
				xb = Of(a.Lo+1, MaxV)
			} else if a.Hi == b.Lo && a.Hi != MinV {
				xb = Of(MinV, a.Hi-1)
			}
		}
		if a.IsPoint() {
			if b.Lo == a.Lo && b.Lo != MaxV {
				yb = Of(b.Lo+1, MaxV)
			} else if b.Hi == a.Lo && b.Hi != MinV {
				yb = Of(MinV, b.Hi-1)
			}
		}
	}

	out := env
	var dead bool
	out, dead = l.applyBound(out, c.X, xb)
	if dead {
		return Env{bottom: true}
	}
	out, dead = l.applyBound(out, c.Y, yb)
	if dead {
		return Env{bottom: true}
	}

	// Division-guard recording: x ≤ C/b (and the mirrored C/b ≥ x).
	switch op {
	case token.LSS, token.LEQ:
		out = l.recordGuard(out, c.X, c.Y)
	case token.GTR, token.GEQ:
		out = l.recordGuard(out, c.Y, c.X)
	}
	return out
}

// applyBound intersects a tracked identifier's interval with bound —
// or, for a pure non-identifier expression, records an expression
// fact; dead reports a contradiction (empty result).
func (l *EnvLattice) applyBound(env Env, e ast.Expr, bound Interval) (Env, bool) {
	if bound.IsTop() {
		return env, false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return l.applyExprBound(env, e, bound)
	}
	v, _ := l.objOf(id).(*types.Var)
	if !l.tracked(v) {
		return env, false
	}
	cur, ok := env.vars[v]
	if !ok {
		cur = VarFact{typeRangeOf(v.Type()), CycleName(v.Name())}
	}
	next := Intersect(cur.IV, bound)
	if next.IsEmpty() {
		return env, true
	}
	if next == cur.IV {
		return env, false
	}
	vars := make(map[*types.Var]VarFact, len(env.vars)+1)
	for k, f := range env.vars {
		vars[k] = f
	}
	vars[v] = VarFact{next, cur.Cycle}
	return Env{vars: vars, guards: env.guards, exprs: env.exprs}, false
}

// applyExprBound records a branch-proved bound on a pure
// non-identifier expression of signed-integer type: a field read, an
// element read, a len/cap call, or arithmetic over those. This is what
// lets the max-accumulate idiom carry the comparison's bound into the
// assignment one statement later (`if e.Period > margin { margin =
// e.Period }` proves margin ≥ old margin + 1, hence ≥ 0 from a zero
// seed) without any assumption about field contents.
func (l *EnvLattice) applyExprBound(env Env, e ast.Expr, bound Interval) (Env, bool) {
	if t := l.Info.TypeOf(e); t != nil {
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 || b.Info()&types.IsUnsigned != 0 {
			return env, false
		}
	} else {
		return env, false
	}
	if !l.pureExpr(e) {
		return env, false
	}
	canon, deps := l.canonExpr(e)
	for _, d := range deps {
		if !l.observable(d) {
			return env, false
		}
	}
	cur, _ := l.Eval(env, e)
	next := Intersect(cur, bound)
	if next.IsEmpty() {
		return env, true
	}
	if next == cur {
		return env, false
	}
	exprs := make(map[string]exprFact, len(env.exprs)+1)
	for k, f := range env.exprs {
		exprs[k] = f
	}
	exprs[canon] = exprFact{next, deps}
	return Env{vars: env.vars, guards: env.guards, exprs: exprs}, false
}

// pureExpr reports whether re-evaluating e cannot have effects: no
// calls except the len/cap builtins.
func (l *EnvLattice) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, builtin := l.objOf(id).(*types.Builtin); builtin && (id.Name == "len" || id.Name == "cap") {
				return true
			}
		}
		pure = false
		return false
	})
	return pure
}

// recordGuard stores the division-guard pair of `x ≤ C/b` when x is a
// tracked identifier, every variable of b is observable, and C has a
// real upper bound.
func (l *EnvLattice) recordGuard(env Env, xe, quoExpr ast.Expr) Env {
	quo, ok := ast.Unparen(quoExpr).(*ast.BinaryExpr)
	if !ok || quo.Op != token.QUO {
		return env
	}
	id, ok := ast.Unparen(xe).(*ast.Ident)
	if !ok {
		return env
	}
	v, _ := l.objOf(id).(*types.Var)
	if !l.tracked(v) {
		return env
	}
	civ, _ := l.Eval(env, quo.X)
	if civ.IsEmpty() || civ.Hi == MaxV || civ.Hi < 0 {
		return env
	}
	// The multiply site re-evaluates b textually, so b must be pure:
	// no calls except len/cap (whose argument is then a dep var), and
	// every variable observable so a write is guaranteed to kill.
	if !l.pureExpr(quo.Y) {
		return env
	}
	canon, deps := l.canonExpr(quo.Y)
	for _, d := range deps {
		if !l.observable(d) {
			return env
		}
	}
	guards := make(map[guardKey]guardFact, len(env.guards)+1)
	for k, g := range env.guards {
		guards[k] = g
	}
	guards[guardKey{v, canon}] = guardFact{bound: civ.Hi, deps: deps}
	return Env{vars: env.vars, guards: guards, exprs: env.exprs}
}

// intExpr reports whether e's static type is an integer.
func (l *EnvLattice) intExpr(e ast.Expr) bool {
	t := l.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// Prove reports whether an integer condition is provably always true
// or always false under env (both false when undecided).
func (l *EnvLattice) Prove(env Env, cond ast.Expr) (always, never bool) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			never, always = l.Prove(env, c.X)
			return
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			ax, nx := l.Prove(env, c.X)
			ay, ny := l.Prove(env, c.Y)
			return ax && ay, nx || ny
		case token.LOR:
			ax, nx := l.Prove(env, c.X)
			ay, ny := l.Prove(env, c.Y)
			return ax || ay, nx && ny
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if !l.intExpr(c.X) || !l.intExpr(c.Y) {
				return false, false
			}
			a, _ := l.Eval(env, c.X)
			b, _ := l.Eval(env, c.Y)
			if a.IsEmpty() || b.IsEmpty() {
				return false, false
			}
			switch c.Op {
			case token.LSS:
				return a.Hi < b.Lo, a.Lo >= b.Hi
			case token.LEQ:
				return a.Hi <= b.Lo, a.Lo > b.Hi
			case token.GTR:
				return a.Lo > b.Hi, a.Hi <= b.Lo
			case token.GEQ:
				return a.Lo >= b.Hi, a.Hi < b.Lo
			case token.EQL:
				return a.IsPoint() && b.IsPoint() && a.Lo == b.Lo, Intersect(a, b).IsEmpty()
			case token.NEQ:
				return Intersect(a, b).IsEmpty(), a.IsPoint() && b.IsPoint() && a.Lo == b.Lo
			}
		}
	}
	return false, false
}

// nameTaint reports whether any identifier inside a (constant) expression
// names a cycle quantity — `period * flits` stays tainted after folding.
func nameTaint(e ast.Expr) bool {
	taint := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && CycleName(id.Name) {
			taint = true
		}
		return !taint
	})
	return taint
}

// dec1 / inc1: rail-absorbing ±1 (∞−1 = ∞), so refining against an
// unbounded side never invents a phantom finite bound.
func dec1(v int64) int64 {
	if v == MinV || v == MaxV {
		return v
	}
	return v - 1
}

func inc1(v int64) int64 {
	if v == MinV || v == MaxV {
		return v
	}
	return v + 1
}

// --- driver -----------------------------------------------------------------

// FuncResult is the converged interval analysis of one function body.
type FuncResult struct {
	G    *cfg.CFG
	Flow *dataflow.Result[Env]
	Lat  *EnvLattice
}

// Analyze builds the CFG, runs the widened fixpoint, and applies two
// plain decreasing sweeps: re-evaluating the transfer equations from a
// post-fixpoint without widening can only move toward the least
// fixpoint (monotone transfers), never below it, so the sweeps recover
// the precision widening threw away — a loop widened to a threshold
// shrinks back to its real trip bound — while staying sound.
func Analyze(body *ast.BlockStmt, lat *EnvLattice) *FuncResult {
	g := cfg.New(body)
	res := dataflow.Forward[Env](g, lat)

	preds := make([][]*cfg.Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}
	entry := g.Entry().Index
	for sweep := 0; sweep < 2; sweep++ {
		for _, b := range g.Blocks {
			if !res.Reached[b.Index] {
				continue
			}
			var in Env
			have := false
			if b.Index == entry {
				in = lat.Entry()
				have = true
			}
			for _, p := range preds[b.Index] {
				if !res.Reached[p.Index] {
					continue
				}
				out := lat.TransferEdge(p, b, res.Out[p.Index])
				if !have {
					in, have = out, true
				} else {
					in = lat.Join(in, out)
				}
			}
			if !have {
				continue
			}
			res.In[b.Index] = in
			out := in
			for _, nd := range b.Nodes {
				out = lat.Transfer(nd, out)
			}
			res.Out[b.Index] = out
		}
	}
	return &FuncResult{G: g, Flow: res, Lat: lat}
}

// InEnv returns the converged input env of a block; false when the
// block was never reached from entry.
func (r *FuncResult) InEnv(b *cfg.Block) (Env, bool) {
	if !r.Flow.Reached[b.Index] {
		return Env{}, false
	}
	return r.Flow.In[b.Index], true
}

// Step replays one node's transfer — analyzers walk a block's nodes in
// order, inspecting each with the env in force just before it runs.
func (r *FuncResult) Step(n ast.Node, env Env) Env { return r.Lat.Transfer(n, env) }
