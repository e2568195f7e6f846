package interval

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// analyzeNamed type-checks src (a complete file body without the
// package clause), runs the interval analysis over the function named
// name, and returns the converged result.
func analyzeNamed(t *testing.T, src, name string) (*FuncResult, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var fd *ast.FuncDecl
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == name {
			fd = d
		}
	}
	if fd == nil {
		t.Fatalf("no function %q in fixture", name)
	}
	lat := NewEnvLattice(info, fd, fd.Body)
	return Analyze(fd.Body, lat), info, fd
}

// varNamed finds the unique local/param variable of that name.
func varNamed(t *testing.T, info *types.Info, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for _, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && v.Name() == name {
			if found != nil && found != v {
				t.Fatalf("variable %q declared twice in fixture", name)
			}
			found = v
		}
	}
	if found == nil {
		t.Fatalf("no variable %q in fixture", name)
	}
	return found
}

// envAtKind returns the input env of the first reached block of kind.
func envAtKind(t *testing.T, r *FuncResult, kind string) Env {
	t.Helper()
	for _, b := range r.G.Blocks {
		if b.Kind == kind && r.Flow.Reached[b.Index] {
			return r.Flow.In[b.Index]
		}
	}
	t.Fatalf("no reached block of kind %q; blocks:\n%v", kind, r.G.Blocks)
	return Env{}
}

// factAt is envAtKind + variable lookup.
func factAt(t *testing.T, r *FuncResult, info *types.Info, kind, name string) VarFact {
	t.Helper()
	env := envAtKind(t, r, kind)
	if env.Bottom() {
		t.Fatalf("env at %q is bottom", kind)
	}
	f, ok := env.Var(varNamed(t, info, name))
	if !ok {
		t.Fatalf("variable %q not tracked at %q", name, kind)
	}
	return f
}

// envBefore replays the converged analysis up to (but not including)
// the node for which match returns true, returning the env in force
// there.
func envBefore(t *testing.T, r *FuncResult, match func(ast.Node) bool) (Env, ast.Node) {
	t.Helper()
	for _, b := range r.G.Blocks {
		if !r.Flow.Reached[b.Index] {
			continue
		}
		env := r.Flow.In[b.Index]
		for _, n := range b.Nodes {
			if match(n) {
				return env, n
			}
			env = r.Step(n, env)
		}
	}
	t.Fatal("no CFG node matched")
	return Env{}, nil
}

func TestEntryFacts(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
func f(period int, n int) (total int64) {
	_ = period
	_ = n
	return total
}
`, "f")
	env := r.Lat.Entry()
	p, ok := env.Var(varNamed(t, info, "period"))
	if !ok || !p.Cycle || !p.IV.IsTop() {
		t.Errorf("period entry fact = %+v, want top interval with cycle taint", p)
	}
	n, ok := env.Var(varNamed(t, info, "n"))
	if !ok || n.Cycle || !n.IV.IsTop() {
		t.Errorf("n entry fact = %+v, want top interval without taint", n)
	}
	total, ok := env.Var(varNamed(t, info, "total"))
	if !ok || !total.IV.IsPoint() || total.IV.Lo != 0 {
		t.Errorf("named result entry fact = %+v, want the zero point", total)
	}
}

// TestRefineBranch drives branch-condition refinement, including the
// short-circuit operators and negation, through if/else arms.
func TestRefineBranch(t *testing.T) {
	cases := []struct {
		name   string
		cond   string
		kind   string // block to probe
		lo, hi int64
	}{
		{"lt-then", "x < 10", "if.then", MinV, 9},
		{"lt-else", "x < 10", "if.else", 10, MaxV},
		{"leq-then", "x <= 10", "if.then", MinV, 10},
		{"gtr-then", "x > 0", "if.then", 1, MaxV},
		{"geq-else", "x >= 0", "if.else", MinV, -1},
		{"eq-then", "x == 5", "if.then", 5, 5},
		{"neq-point", "x == 5", "if.else", MinV, MaxV},
		{"and-then", "x > 0 && x < 100", "if.then", 1, 99},
		{"or-else", "x < 0 || x > 100", "if.else", 0, 100},
		{"not-then", "!(x < 10)", "if.then", 10, MaxV},
		{"nested-not-else", "!(x >= 3)", "if.else", 3, MaxV},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, info, _ := analyzeNamed(t, `
func f(x int) int {
	if `+tc.cond+` {
		return x
	} else {
		return -x
	}
}
`, "f")
			f := factAt(t, r, info, tc.kind, "x")
			if f.IV.Lo != tc.lo || f.IV.Hi != tc.hi {
				t.Errorf("x at %s = %v, want [%d, %d]", tc.kind, f.IV, tc.lo, tc.hi)
			}
		})
	}
}

// TestLoopBounds drives widening + edge refinement + narrowing through
// loops of both stride signs and through the int64 endpoints.
func TestLoopBounds(t *testing.T) {
	t.Run("positive-stride", func(t *testing.T) {
		r, info, _ := analyzeNamed(t, `
func f() int {
	s := 0
	for i := 0; i < 3; i++ {
		s = i
	}
	return s
}
`, "f")
		// The body sees the true edge of i < 3; widening has taken the
		// head's upper bound to the 1<<21 threshold, so the loop exit
		// keeps a real (non-rail) bound too.
		body := factAt(t, r, info, "for.body", "i")
		if body.IV.Lo != 0 || body.IV.Hi != 2 {
			t.Errorf("i in body = %v, want [0, 2]", body.IV)
		}
		head := factAt(t, r, info, "for.head", "i")
		if head.IV.Lo != 0 || !head.IV.BoundedHi() {
			t.Errorf("i at head = %v, want [0, <bounded>]", head.IV)
		}
	})

	t.Run("negative-stride", func(t *testing.T) {
		r, info, _ := analyzeNamed(t, `
func f() int {
	s := 0
	for i := 10; i > 0; i-- {
		s = i
	}
	return s
}
`, "f")
		body := factAt(t, r, info, "for.body", "i")
		if body.IV.Lo != 1 || body.IV.Hi != 10 {
			t.Errorf("i in body = %v, want [1, 10]", body.IV)
		}
		exit := factAt(t, r, info, "exit", "i")
		if !exit.IV.IsPoint() || exit.IV.Lo != 0 {
			t.Errorf("i at exit = %v, want the point 0 (false edge of i > 0)", exit.IV)
		}
	})

	t.Run("min-endpoint", func(t *testing.T) {
		// Decrementing past MinInt64 overflows to Top; the fixpoint must
		// still terminate and the head env absorb the rail.
		r, info, _ := analyzeNamed(t, `
func f(c bool) int64 {
	x := int64(-9223372036854775807)
	for c {
		x--
	}
	return x
}
`, "f")
		head := factAt(t, r, info, "for.head", "x")
		if head.IV.BoundedLo() {
			t.Errorf("x at head = %v, want an unbounded low rail after MinInt64 overflow", head.IV)
		}
	})

	t.Run("max-endpoint", func(t *testing.T) {
		r, info, _ := analyzeNamed(t, `
func f(c bool) int64 {
	x := int64(9223372036854775807 - 1)
	for c {
		x++
	}
	return x
}
`, "f")
		head := factAt(t, r, info, "for.head", "x")
		if head.IV.BoundedHi() {
			t.Errorf("x at head = %v, want an unbounded high rail after MaxInt64 overflow", head.IV)
		}
	})
}

// TestRangeOverInt: go 1.22 range-over-int bounds the key variable.
func TestRangeOverInt(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
func f() int {
	s := 0
	for i := range 8 {
		s = i
	}
	return s
}
`, "f")
	body := factAt(t, r, info, "range.body", "i")
	if body.IV.Lo != 0 || body.IV.Hi != 7 {
		t.Errorf("i in range body = %v, want [0, 7]", body.IV)
	}
}

// TestGuardedMultiply: the repo's clamp idiom — `if m > C/k { m = C }
// else { m *= k }` — keeps the product bounded by C on the else arm,
// while the same multiply without the guard overflows to Top.
func TestGuardedMultiply(t *testing.T) {
	const maxH = int64(1) << 21
	r, info, _ := analyzeNamed(t, `
const maxH = 1 << 21

func f(margin int, k int) int {
	if margin < 0 {
		margin = 0
	}
	if k < 1 {
		k = 1
	}
	if margin > maxH/(k+1) {
		margin = maxH
	} else {
		margin *= k + 1
	}
	return margin
}
`, "f")
	// Probe the multiply itself: the guard pair must suppress overflow.
	env, node := envBefore(t, r, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.MUL_ASSIGN
	})
	as := node.(*ast.AssignStmt)
	iv, over, _ := r.Lat.BinOp(env, token.MUL, as.Lhs[0], as.Rhs[0])
	if over {
		t.Errorf("guarded multiply reported may-overflow; env bound = %v", iv)
	}
	if iv.Lo != 0 || iv.Hi != maxH {
		t.Errorf("guarded multiply enclosure = %v, want [0, %d]", iv, maxH)
	}
	// And the joined result at exit keeps the bound.
	exit := factAt(t, r, info, "exit", "margin")
	if exit.IV.Hi != maxH {
		t.Errorf("margin at exit = %v, want upper bound %d", exit.IV, maxH)
	}
}

// TestUnguardedMultiplyOverflows is the negative control: the same
// multiply with the clamp deleted must report may-overflow.
func TestUnguardedMultiplyOverflows(t *testing.T) {
	r, _, _ := analyzeNamed(t, `
func f(margin int, k int) int {
	if margin < 0 {
		margin = 0
	}
	if k < 1 {
		k = 1
	}
	margin *= k + 1
	return margin
}
`, "f")
	env, node := envBefore(t, r, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.MUL_ASSIGN
	})
	as := node.(*ast.AssignStmt)
	_, over, _ := r.Lat.BinOp(env, token.MUL, as.Lhs[0], as.Rhs[0])
	if !over {
		t.Error("unguarded unbounded multiply must report may-overflow")
	}
}

// TestGuardKilledByReassign: writing to either side of a guard pair
// invalidates it before the multiply.
func TestGuardKilledByReassign(t *testing.T) {
	r, _, _ := analyzeNamed(t, `
const maxH = 1 << 21

func f(margin int, k int) int {
	if margin < 0 {
		margin = 0
	}
	if k < 1 {
		k = 1
	}
	if margin <= maxH/k {
		k = k + k // the guard's divisor changed: the pair is dead
		margin *= k
	}
	return margin
}
`, "f")
	env, node := envBefore(t, r, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.MUL_ASSIGN
	})
	as := node.(*ast.AssignStmt)
	_, over, _ := r.Lat.BinOp(env, token.MUL, as.Lhs[0], as.Rhs[0])
	if !over {
		t.Error("multiply after the guard's divisor was reassigned must report may-overflow")
	}
}

// TestDoublingLoopSafe: the horizon-doubling idiom — break above
// maxHorizon/2, then h *= 2 — is provably overflow-free even with an
// unbounded maxHorizon, via plain comparison refinement.
func TestDoublingLoopSafe(t *testing.T) {
	r, _, _ := analyzeNamed(t, `
func f(maxHorizon int) int {
	h := 1
	for {
		if h > maxHorizon/2 {
			break
		}
		h *= 2
	}
	return h
}
`, "f")
	env, node := envBefore(t, r, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.MUL_ASSIGN
	})
	as := node.(*ast.AssignStmt)
	iv, over, _ := r.Lat.BinOp(env, token.MUL, as.Lhs[0], as.Rhs[0])
	if over {
		t.Errorf("h *= 2 under h <= maxHorizon/2 reported may-overflow (enclosure %v)", iv)
	}
}

// TestProve: always/never classification for deadrange.
func TestProve(t *testing.T) {
	r, _, fd := analyzeNamed(t, `
func f(x int) int {
	if x >= 0 && x < 1000 {
		if x >= 0 { // always true
			x++
		}
		if x < 0 { // never true: x stays within [0, 1000]
			x--
		}
	}
	return x
}
`, "f")
	// Collect the two inner if conditions in source order.
	var conds []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			conds = append(conds, ifs.Cond)
		}
		return true
	})
	if len(conds) != 3 {
		t.Fatalf("fixture has %d if conditions, want 3", len(conds))
	}
	probe := func(cond ast.Expr) (always, never bool) {
		env, _ := envBefore(t, r, func(n ast.Node) bool { return n == cond })
		return r.Lat.Prove(env, cond)
	}
	if always, never := probe(conds[0]); always || never {
		t.Errorf("outer x >= 0 on top fact: always=%v never=%v, want undecided", always, never)
	}
	if always, _ := probe(conds[1]); !always {
		t.Error("inner x >= 0 under x >= 0 must prove always-true")
	}
	if _, never := probe(conds[2]); !never {
		t.Error("x < 0 under x >= 0 (post-increment keeps x >= 0) must prove never-true")
	}
}

// TestBottomOnContradiction: refining into an impossible region yields
// the bottom env, and analyzers can skip the arm.
func TestBottomOnContradiction(t *testing.T) {
	r, _, _ := analyzeNamed(t, `
func f(x int) int {
	if x < 0 {
		if x > 0 {
			return 1 // infeasible
		}
	}
	return 0
}
`, "f")
	// The inner then block's input must be bottom (or unreached — the
	// engine still propagates reachability structurally, so probe the
	// env, not Reached).
	for _, b := range r.G.Blocks {
		if b.Kind != "if.then" || !r.Flow.Reached[b.Index] {
			continue
		}
		env := r.Flow.In[b.Index]
		// Two then-blocks exist; the inner one is the bottom one.
		if env.Bottom() {
			return
		}
	}
	t.Error("no bottom then-block: contradictory refinement did not produce bottom")
}

// TestUntrackedEscapes: address-taken and closure-assigned variables
// read as their full type range even after a narrowing assignment.
func TestUntrackedEscapes(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
func f() int {
	a := 1
	p := &a // address taken: a is untracked
	_ = p
	b := 1
	func() { b = 1 << 40 }() // closure-assigned: b is untracked
	return a + b
}
`, "f")
	env := envAtKind(t, r, "exit")
	if _, ok := env.Var(varNamed(t, info, "a")); ok {
		t.Error("address-taken variable must not be tracked")
	}
	if _, ok := env.Var(varNamed(t, info, "b")); ok {
		t.Error("closure-assigned variable must not be tracked")
	}
}

// TestConversionBounds: a conversion keeps a fitting operand interval
// and falls back to the target's type range otherwise.
func TestConversionBounds(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
func f(x int64) int8 {
	if x > 5 {
		x = 5
	}
	if x < 0 {
		x = 0
	}
	y := int8(x) // fits: keeps [0, 5]
	var w int8
	if x > 2 {
		w = int8(x + 300) // may not fit int8: type range
	}
	_ = w
	return y
}
`, "f")
	y := factAt(t, r, info, "exit", "y")
	if y.IV.Lo != 0 || y.IV.Hi != 5 {
		t.Errorf("int8(x) with x in [0,5] = %v, want [0, 5]", y.IV)
	}
	w := factAt(t, r, info, "exit", "w")
	if w.IV.Lo < -128 || w.IV.Hi > 127 {
		t.Errorf("int8 variable escaped its type range: %v", w.IV)
	}
}

// TestMaxAccumulate: the max-accumulate idiom earns margin >= 0 from
// the branch alone — the comparison's bound is carried into the
// assignment via an expression fact on the field read, with no
// assumption about what the field holds.
func TestMaxAccumulate(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
type elem struct{ Period int }

func f(elems []elem) int {
	margin := 0
	for i := range elems {
		if elems[i].Period > margin {
			margin = elems[i].Period
		}
	}
	return margin
}
`, "f")
	m := factAt(t, r, info, "exit", "margin")
	if m.IV.Lo != 0 {
		t.Errorf("max-accumulate margin = %v, want Lo = 0 (branch-carried bound)", m.IV)
	}
	if !m.Cycle {
		t.Error("margin accumulated from a Period field must be cycle-tainted")
	}
}

// TestExprFactKilledByCall: a call between the comparison and the
// assignment may rewrite the heap, so the expression fact must die and
// the assignment falls back to the type range.
func TestExprFactKilledByCall(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
type elem struct{ Period int }

func mutate() {}

func f(elems []elem) int {
	margin := 0
	for i := range elems {
		if elems[i].Period > margin {
			mutate()
			margin = elems[i].Period
		}
	}
	return margin
}
`, "f")
	m := factAt(t, r, info, "exit", "margin")
	if m.IV.Lo == 0 {
		t.Errorf("expression fact survived a heap-mutating call: margin = %v", m.IV)
	}
}

// TestExprFactKilledByIndexWrite: a store through an element lvalue
// likewise invalidates every expression fact.
func TestExprFactKilledByIndexWrite(t *testing.T) {
	r, info, _ := analyzeNamed(t, `
type elem struct{ Period int }

func f(elems []elem) int {
	margin := 0
	for i := range elems {
		if elems[i].Period > margin {
			elems[i].Period = -1
			margin = elems[i].Period
		}
	}
	return margin
}
`, "f")
	m := factAt(t, r, info, "exit", "margin")
	if m.IV.Lo == 0 {
		t.Errorf("expression fact survived a store through an index: margin = %v", m.IV)
	}
}
