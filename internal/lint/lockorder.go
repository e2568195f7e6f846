package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
	"repro/internal/lint/dataflow"
	"repro/internal/lint/summary"
)

// Lockorder is the mutex-discipline analyzer. One forward may-held
// dataflow per function body — declarations and literals alike —
// tracks the sync.Mutex/RWMutex acquisitions that may be held at each
// program point. Lock operations come from summary.ResolveLockOp, and
// a call inherits its callee's lock effects from the shared summary
// engine: classes the callee releases come off the held set, classes
// it acquires and keeps go on, tagged with the helper's name. It
// reports
//
//   - double lock: an acquisition of a mutex instance that may already
//     be held — `c.mu.Lock()` twice, or `mu.RLock()` while `mu.Lock()`
//     is in effect — a self-deadlock on that path (Go mutexes are not
//     reentrant; a recursive RLock is legal and stays silent);
//   - lock-order inversion: class B acquired while class A is held
//     somewhere in the module, and A while B is held elsewhere — the
//     ABBA deadlock between concurrent goroutines. Order edges are
//     collected module-wide; an acquisition reached through calls names
//     the call chain, and every site of both directions is reported
//     once;
//   - return while held: some path returns with a lock acquired in the
//     function — directly, or through a helper that acquires and keeps
//     it — still held, while other paths release it. A function that
//     releases the lock nowhere is a deliberate lock helper and stays
//     silent; a deferred release (`defer mu.Unlock()`, a deferred
//     closure or helper that releases) covers every path. When the
//     acquisition is a top-level statement made once and the releases
//     are plain `mu.Unlock()` statements, the diagnostic carries a fix:
//     defer the unlock at the acquisition and delete the manual ones.
//
// Instances (`c.mu`) are compared only within one function body, so
// two Controllers never alias; classes, used for ordering, are the
// declared field or variable (`admit.Controller.mu`). A `defer
// mu.Unlock()` keeps the lock held for the rest of the function, which
// is what the double-lock check needs to see; calls behind `go` and
// `defer` are not path events.
var Lockorder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "detects double locks, lock-order inversions (direct or through call chains) and returns while a lock is held",
	Run:  runLockorder,
}

// lockDiag is one finding of the module-wide run, tagged with the
// package whose pass reports it.
type lockDiag struct {
	pkg string
	analysis.Diagnostic
}

func runLockorder(pass *analysis.Pass) error {
	diags := pass.Module.Shared("interproc/lockorder", func() any {
		return lockorderModule(pass.Module, moduleEngine(pass))
	}).([]lockDiag)
	for _, d := range diags {
		if d.pkg == pass.Pkg.Path() {
			pass.Report(d.Diagnostic)
		}
	}
	return nil
}

// heldItem is one acquisition the held set tracks. via names the
// helper when the lock came from a call that acquires and keeps it;
// such items have no instance (InstKey == "") and Pos is the call.
type heldItem struct {
	summary.LockOp
	via string
}

// instMode keys an acquisition or release by instance and mode.
func instMode(op summary.LockOp) string { return op.InstKey + op.Mode.String() }

// orderEdge records "class acquired while class held" at pos, with the
// call chain that reached the acquisition ("" when direct).
type orderEdge struct {
	held, acquired string // class display names
	chain          string
	pos            token.Pos
	pkg            string
}

// lockModule is the state of one run: call sites by expression, order
// edges by (held, acquired) class-key pair, and the findings.
type lockModule struct {
	eng   *summary.Engine
	fset  *token.FileSet
	sites map[*ast.CallExpr][]*callgraph.Edge
	edges map[[2]string][]orderEdge
	diags []lockDiag
}

// lockorderModule analyzes every function body of the module once and
// returns all findings; each pass keeps those of its own package.
func lockorderModule(mod *analysis.Module, eng *summary.Engine) []lockDiag {
	lm := &lockModule{
		eng:   eng,
		sites: map[*ast.CallExpr][]*callgraph.Edge{},
		edges: map[[2]string][]orderEdge{},
	}
	for _, n := range eng.Graph.Nodes {
		for _, e := range n.Out {
			lm.sites[e.Site] = append(lm.sites[e.Site], e)
		}
	}
	for _, pkg := range mod.Packages {
		lm.fset = pkg.Fset // one FileSet is shared by every package of a run
		for _, f := range pkg.Files {
			if analysis.IsTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			for _, fn := range cfg.FuncBodies(f) {
				lm.function(pkg, fn.Body)
			}
		}
	}
	lm.inversions()
	return lm.diags
}

func (lm *lockModule) report(pkg string, d analysis.Diagnostic) {
	lm.diags = append(lm.diags, lockDiag{pkg: pkg, Diagnostic: d})
}

// lockFrame is the state of one function body: the interned held
// items and, filled during the reporting replay, the release evidence
// the exit check needs.
type lockFrame struct {
	lm    *lockModule
	pkg   *analysis.Package
	body  *ast.BlockStmt
	items []heldItem
	ids   map[heldItem]int

	replay        bool
	acquired      map[string]int             // instance+mode -> direct acquisitions
	releaseStmts  map[string][]*ast.ExprStmt // instance+mode -> plain release statements
	released      map[string]bool            // classes released directly or by a call
	callReleased  map[string]bool            // classes released by a call
	deferred      map[string]bool            // instance+mode released by a defer
	deferredClass map[string]bool            // classes released by a deferred helper
}

// heldSet is the dataflow fact: byte i is 1 when item i may be held.
// Trailing zeros are trimmed, so facts are immutable strings that
// compare with ==.
type heldSet string

type heldLattice struct{ fr *lockFrame }

func (heldLattice) Entry() heldSet                            { return "" }
func (l heldLattice) Transfer(n ast.Node, in heldSet) heldSet { return l.fr.step(n, in) }
func (heldLattice) Equal(a, b heldSet) bool                   { return a == b }

func (heldLattice) Join(a, b heldSet) heldSet {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := []byte(a)
	for i := range len(b) {
		out[i] |= b[i]
	}
	return heldSet(out)
}

// function runs the held-set dataflow over one body, replays the
// reached blocks to report and collect evidence, then checks the exit.
func (lm *lockModule) function(pkg *analysis.Package, body *ast.BlockStmt) {
	fr := &lockFrame{lm: lm, pkg: pkg, body: body, ids: map[heldItem]int{}}
	g := cfg.New(body)
	res := dataflow.Forward[heldSet](g, heldLattice{fr})

	fr.replay = true
	fr.acquired = map[string]int{}
	fr.releaseStmts = map[string][]*ast.ExprStmt{}
	fr.released, fr.callReleased = map[string]bool{}, map[string]bool{}
	fr.deferred, fr.deferredClass = map[string]bool{}, map[string]bool{}
	for _, b := range g.Blocks {
		if !res.Reached[b.Index] {
			continue
		}
		fact := res.In[b.Index]
		for _, n := range b.Nodes {
			fact = fr.step(n, fact)
		}
	}
	if exit := g.Exit().Index; res.Reached[exit] {
		for id, on := range []byte(res.In[exit]) {
			if on == 1 {
				fr.leak(fr.items[id])
			}
		}
	}
}

// step applies one CFG node's lock effects to the held set; during the
// replay it also reports double locks, records order edges and
// collects release evidence.
func (fr *lockFrame) step(n ast.Node, in heldSet) heldSet {
	held := []byte(in)
	info, tpkg := fr.pkg.Info, fr.pkg.Pkg
	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			return false // runs elsewhere, unordered with this body
		case *ast.DeferStmt:
			if fr.replay {
				fr.deferRelease(m.Call)
			}
			return false // runs at exit: a release there is an exemption
		case *ast.CallExpr:
			op, ok := summary.ResolveLockOp(info, tpkg, m)
			switch {
			case ok && op.Acquire:
				it := heldItem{LockOp: op}
				if fr.replay {
					fr.check(held, it, "")
					fr.acquired[instMode(op)]++
				}
				held = fr.hold(held, it)
			case ok:
				held = fr.release(held, op, n)
			default:
				for _, e := range fr.lm.sites[m] {
					held = fr.call(held, e)
				}
			}
		}
		return true
	})
	for len(held) > 0 && held[len(held)-1] == 0 {
		held = held[:len(held)-1]
	}
	return heldSet(held)
}

// hold marks it held, interning it on first sight.
func (fr *lockFrame) hold(held []byte, it heldItem) []byte {
	id, ok := fr.ids[it]
	if !ok {
		id = len(fr.items)
		fr.ids[it] = id
		fr.items = append(fr.items, it)
	}
	for len(held) <= id {
		held = append(held, 0)
	}
	held[id] = 1
	return held
}

// check weighs acquiring it against the held set: a direct acquisition
// of a held instance is a double lock, and every other held class
// gains an order edge to it.
func (fr *lockFrame) check(held []byte, it heldItem, chain string) {
	double := false
	for id, on := range held {
		h := fr.items[id]
		switch {
		case on == 0:
		case h.ClassKey != it.ClassKey:
			pair := [2]string{h.ClassKey, it.ClassKey}
			fr.lm.edges[pair] = append(fr.lm.edges[pair],
				orderEdge{h.ClassName, it.ClassName, chain, it.Pos, fr.pkg.Path})
		case it.InstKey != "" && h.InstKey == it.InstKey:
			double = double || it.Mode == summary.Write || h.Mode == summary.Write
		}
	}
	if double {
		verb := "Lock"
		if it.Mode == summary.Read {
			verb = "RLock"
		}
		fr.lm.report(fr.pkg.Path, analysis.Diagnostic{Pos: it.Pos, Message: fmt.Sprintf(
			"%s of %s, which may already be held here (self-deadlock: Go mutexes are not reentrant)",
			verb, it.InstName)})
	}
}

// release drops the held items op releases: its instance and mode, or
// a helper item of its class and mode.
func (fr *lockFrame) release(held []byte, op summary.LockOp, n ast.Node) []byte {
	for id := range held {
		h := fr.items[id]
		if h.Mode == op.Mode && (h.InstKey == op.InstKey || h.via != "" && h.ClassKey == op.ClassKey) {
			held[id] = 0
		}
	}
	if fr.replay {
		fr.released[op.ClassKey] = true
		if es, ok := n.(*ast.ExprStmt); ok && ast.Unparen(es.X).Pos() == op.Pos {
			k := instMode(op)
			fr.releaseStmts[k] = append(fr.releaseStmts[k], es)
		}
	}
	return held
}

// call applies one call edge's summary: the callee's acquisitions are
// checked against the held set, the classes it releases come off it,
// and the classes it acquires and keeps go on as helper items.
func (fr *lockFrame) call(held []byte, e *callgraph.Edge) []byte {
	facts := fr.lm.eng.Func(e.Callee.Func)
	name := callgraph.DisplayName(e.Callee.Func)
	var keep []heldItem
	for _, eff := range facts.Acquires {
		it := heldItem{summary.LockOp{
			InstName: eff.ClassName, ClassKey: eff.ClassKey, ClassName: eff.ClassName,
			Mode: eff.Mode, Acquire: true, Pos: e.Pos(),
		}, name}
		if fr.replay {
			chain := []string{name}
			for _, s := range eff.Chain {
				chain = append(chain, s.Name)
			}
			fr.check(held, it, strings.Join(chain, " → "))
		}
		if !facts.ReleasesClass(eff.ClassKey) {
			keep = append(keep, it)
		}
	}
	for id := range held {
		if facts.ReleasesClass(fr.items[id].ClassKey) {
			held[id] = 0
		}
	}
	if fr.replay {
		for _, c := range facts.Releases {
			fr.released[c], fr.callReleased[c] = true, true
		}
	}
	for _, it := range keep {
		held = fr.hold(held, it)
	}
	return held
}

// deferRelease records the exemptions one deferred call provides: a
// direct release, or a helper whose summary releases a class, either
// deferred itself or called from a deferred closure.
func (fr *lockFrame) deferRelease(call *ast.CallExpr) {
	calls := []*ast.CallExpr{call}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				calls = append(calls, c)
			}
			return true
		})
	}
	for _, c := range calls {
		if op, ok := summary.ResolveLockOp(fr.pkg.Info, fr.pkg.Pkg, c); ok {
			if !op.Acquire {
				fr.deferred[instMode(op)] = true
			}
			continue
		}
		for _, e := range fr.lm.sites[c] {
			for _, class := range fr.lm.eng.Func(e.Callee.Func).Releases {
				fr.deferredClass[class] = true
			}
		}
	}
}

// leak reports an item still held at the function exit, unless a
// deferred release covers it or the function releases its class
// nowhere (a lock helper returns locked by contract).
func (fr *lockFrame) leak(it heldItem) {
	k := instMode(it.LockOp)
	if fr.deferred[k] || fr.deferredClass[it.ClassKey] || !fr.released[it.ClassKey] {
		return
	}
	verb, unverb := "Lock", "Unlock"
	if it.Mode == summary.Read {
		verb, unverb = "RLock", "RUnlock"
	}
	d := analysis.Diagnostic{Pos: it.Pos, Message: fmt.Sprintf(
		"%s.%s() here, but some path returns without unlocking (%s is released on other paths, so this is not a lock-helper)",
		it.InstName, verb, it.InstName)}
	if it.via != "" {
		d.Message = fmt.Sprintf(
			"%s is still held at some return of this function (acquired via %s here, released on other paths only)",
			it.InstName, it.via)
	}
	stmts := fr.releaseStmts[k]
	if acq := fr.topLevel(it.Pos); acq != nil && it.via == "" && fr.acquired[k] == 1 &&
		!fr.callReleased[it.ClassKey] && len(stmts) > 0 {
		edits := []analysis.TextEdit{{
			Pos: acq.End(), End: acq.End(),
			NewText: []byte("\ndefer " + it.InstName + "." + unverb + "()"),
		}}
		for _, s := range stmts {
			edits = append(edits, analysis.TextEdit{Pos: s.Pos(), End: s.End()})
		}
		d.SuggestedFixes = []analysis.SuggestedFix{{
			Message:   fmt.Sprintf("defer %s.%s() at the acquisition and drop the manual unlocks", it.InstName, unverb),
			TextEdits: edits,
		}}
	}
	fr.lm.report(fr.pkg.Path, d)
}

// topLevel returns the statement of the body's own list that is the
// call at pos, or nil.
func (fr *lockFrame) topLevel(pos token.Pos) *ast.ExprStmt {
	for _, s := range fr.body.List {
		if es, ok := s.(*ast.ExprStmt); ok && ast.Unparen(es.X).Pos() == pos {
			return es
		}
	}
	return nil
}

// inversions reports, for every class pair acquired in both orders,
// each site of both directions once, pointing at the earliest site of
// the opposite order.
func (lm *lockModule) inversions() {
	pairs := make([][2]string, 0, len(lm.edges))
	for p := range lm.edges {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b [2]string) int {
		return strings.Compare(a[0]+"\x00"+a[1], b[0]+"\x00"+b[1])
	})
	for _, p := range pairs {
		rev := lm.edges[[2]string{p[1], p[0]}]
		if len(rev) == 0 {
			continue
		}
		opp := rev[0].pos
		for _, e := range rev[1:] {
			opp = min(opp, e.pos)
		}
		op := lm.fset.Position(opp)
		seen := map[token.Pos]bool{}
		for _, e := range lm.edges[p] {
			if seen[e.pos] {
				continue
			}
			seen[e.pos] = true
			kind, via := "lock order inversion", ""
			if e.chain != "" {
				kind, via = kind+" across calls", " via call chain "+e.chain
			}
			lm.report(e.pkg, analysis.Diagnostic{Pos: e.pos, Message: fmt.Sprintf(
				"%s: %s acquired%s while %s is held, but the opposite order is used at %s:%d (possible ABBA deadlock)",
				kind, e.acquired, via, e.held, shortFile(op.Filename), op.Line)})
		}
	}
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}
