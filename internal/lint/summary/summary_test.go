package summary

import (
	"bytes"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint/interval"
	"repro/internal/lint/linttest"
)

// engineOver loads the fixture set and builds an engine.
func engineOver(t *testing.T, pkgs map[string]map[string]string) *Engine {
	t.Helper()
	return New(linttest.LoadPackages(t, pkgs))
}

// funcNamed finds the *types.Func of a node whose key has the suffix.
func funcNamed(t *testing.T, e *Engine, suffix string) *types.Func {
	t.Helper()
	for _, n := range e.Graph.Nodes {
		if strings.HasSuffix(n.Key(), suffix) {
			return n.Func
		}
	}
	t.Fatalf("no function with key suffix %q", suffix)
	return nil
}

// checkSorts asserts the Sorts fact of each named function.
func checkSorts(t *testing.T, e *Engine, want map[string]bool) {
	t.Helper()
	for name, sorts := range want {
		if got := e.Func(funcNamed(t, e, name)).Sorts; got != sorts {
			t.Errorf("%s.Sorts = %v, want %v", name, got, sorts)
		}
	}
}

func TestDirectAndTransitiveSorts(t *testing.T) {
	e := engineOver(t, map[string]map[string]string{
		"fix/s": {"s.go": `package s

import (
	"slices"
	"sort"
)

func normalize(xs []int) { sort.Ints(xs) }

func viaSlices(xs []int) { slices.Sort(xs) }

func Outer(xs []int) { normalize(xs) }

func Deep(xs []int) { Outer(xs) }

func plain(xs []int) int { return len(xs) }

func CallsPlain(xs []int) int { return plain(xs) }
`},
	})
	checkSorts(t, e, map[string]bool{
		".normalize": true, ".viaSlices": true, ".Outer": true, ".Deep": true,
		".plain": false, ".CallsPlain": false,
	})
}

// TestGoroutineAndClosureEffectsExcluded: a sort that runs on another
// goroutine, after return, or in a closure that may never run does not
// make the caller Sorts. A helper called in a go statement's operands
// runs on the caller's goroutine, so its Sorts still counts.
func TestGoroutineAndClosureEffectsExcluded(t *testing.T) {
	e := engineOver(t, map[string]map[string]string{
		"fix/g": {"g.go": `package g

import "sort"

func normalize(xs []int) { sort.Ints(xs) }

func sorted(xs []int) []int {
	sort.Ints(xs)
	return xs
}

func use([]int) {}

func Spawner(xs []int) { go normalize(xs) }

func SpawnsSort(xs []int) { go sort.Ints(xs) }

func Closure(xs []int) {
	f := func() { normalize(xs) }
	_ = f
}

func ClosureSorts(xs []int) {
	f := func() { sort.Ints(xs) }
	_ = f
}

func Deferred(xs []int) { defer normalize(xs) }

func SpawnOperand(xs []int) { go use(sorted(xs)) }
`},
	})
	checkSorts(t, e, map[string]bool{
		".Spawner": false, ".SpawnsSort": false, ".Closure": false,
		".ClosureSorts": false, ".Deferred": false, ".SpawnOperand": true,
	})
}

// TestRecursiveSCCFixpoint: Sorts reaches every member of a recursive
// cycle that sorts, and a cycle that never sorts stays false.
func TestRecursiveSCCFixpoint(t *testing.T) {
	e := engineOver(t, map[string]map[string]string{
		"fix/rec": {"rec.go": `package rec

import "sort"

func Ping(xs []int, n int) {
	if n > 0 {
		Pong(xs, n-1)
	}
	sort.Ints(xs)
}

func Pong(xs []int, n int) {
	if n > 0 {
		Ping(xs, n-1)
	}
}

func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}
`},
	})
	checkSorts(t, e, map[string]bool{".Ping": true, ".Pong": true, ".Even": false, ".Odd": false})
}

// chainFixture is a three-package chain a -> b -> c whose leaf sorts.
func chainFixture() map[string]map[string]string {
	return map[string]map[string]string{
		"fix/c": {"c.go": `package c

import "sort"

func Leaf(xs []string) { sort.Strings(xs) }
`},
		"fix/b": {"b.go": `package b

import "fix/c"

func Mid(xs []string) { c.Leaf(xs) }
`},
		"fix/a": {"a.go": `package a

import "fix/b"

func Top(xs []string) { b.Mid(xs) }

func Idle() {}
`},
	}
}

func TestSortsAcrossPackages(t *testing.T) {
	e := engineOver(t, chainFixture())
	checkSorts(t, e, map[string]bool{
		"fix/c.Leaf": true, "fix/b.Mid": true, "fix/a.Top": true, "fix/a.Idle": false,
	})
}

func TestDumpDeterminism(t *testing.T) {
	// Two engines over the same loaded packages must dump byte-identical
	// summaries (the cmd/rtwlint determinism test covers the full-run
	// JSON path).
	pkgs := linttest.LoadPackages(t, chainFixture())
	d1 := New(pkgs).Dump()
	d2 := New(pkgs).Dump()
	if !bytes.Equal(d1, d2) {
		t.Errorf("dumps differ:\n%s\nvs\n%s", d1, d2)
	}
	if !bytes.Contains(d1, []byte("\"fix/a.Top\": {\n    \"sorts\": true")) {
		t.Errorf("dump lacks Top's Sorts fact:\n%s", d1)
	}
}

func TestFuncOutsideModule(t *testing.T) {
	e := engineOver(t, chainFixture())
	if got := e.Func(nil); got != nil {
		t.Errorf("Func(nil) = %+v, want nil", got)
	}
	var zero *FuncFacts
	if r, ok := zero.ResultRange(0); ok || !r.IsTop() {
		t.Errorf("nil FuncFacts: ResultRange(0) = %v, %v; want Top, false", r, ok)
	}
}

// TestResultRanges pins the direct-only Ranges fact: constant returns
// union per result position, go/types constant folding is visible,
// unbounded shapes (naked return, tuple-call return, non-constant every
// return) drop the fact, and call merging never propagates it.
func TestResultRanges(t *testing.T) {
	e := engineOver(t, map[string]map[string]string{
		"fix/r": {"r.go": `package r

const horizon = 1 << 21

func twoPoints(c bool) int {
	if c {
		return 3
	}
	return horizon / 2
}

func mixed(c bool) (int, int) {
	if c {
		return 7, varying()
	}
	return 9, varying()
}

func varying() int { return len("xy") + cap([]int{}) }

func naked() (n int) {
	n = 5
	return
}

func tuple() (int, int) { return mixed(true) }

func caller(c bool) int { return twoPoints(c) }
`},
	})

	f := e.Func(funcNamed(t, e, "fix/r.twoPoints"))
	r, ok := f.ResultRange(0)
	if !ok || r != interval.Of(3, 1<<20) {
		t.Errorf("twoPoints range = %v ok=%v, want [3,%d]", r, ok, 1<<20)
	}

	f = e.Func(funcNamed(t, e, "fix/r.mixed"))
	if r, ok := f.ResultRange(0); !ok || r != interval.Of(7, 9) {
		t.Errorf("mixed result 0 = %v ok=%v, want [7,9]", r, ok)
	}
	if _, ok := f.ResultRange(1); ok {
		t.Errorf("mixed result 1 must be unbounded (non-constant returns)")
	}

	for _, name := range []string{"naked", "tuple", "varying"} {
		f := e.Func(funcNamed(t, e, "fix/r."+name))
		if f.Ranges != nil {
			t.Errorf("%s must carry no Ranges fact, got %v", name, f.Ranges)
		}
	}

	// caller returns twoPoints(c) — a non-constant expression. Ranges is
	// direct-only, so the callee's bound must NOT leak through the call.
	f = e.Func(funcNamed(t, e, "fix/r.caller"))
	if f.Ranges != nil {
		t.Errorf("caller must carry no Ranges fact (no merge propagation), got %v", f.Ranges)
	}
	if _, ok := f.ResultRange(0); ok {
		t.Errorf("ResultRange on a nil Ranges must report false")
	}
}
