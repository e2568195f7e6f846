package lint

import (
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/linttest"
)

func TestCrosslock(t *testing.T) {
	analysistest.Run(t, Lockorder, "testdata/src/crosslock", "repro/internal/lintfix/crosslock")
}

// TestCrosslockAcrossPackages pins the cross-package case analysistest
// cannot express: the two halves of the inversion live in different
// packages, each blind to the other intraprocedurally. Each package's
// pass reports its own half: the chained site in use.go and the direct
// opposite order in locks.go.
func TestCrosslockAcrossPackages(t *testing.T) {
	pkgs := linttest.LoadPackages(t, map[string]map[string]string{
		"fix/locks": {"locks.go": `package locks

import "sync"

var (
	MuA sync.Mutex
	MuB sync.Mutex
)

func WithB(f func()) {
	MuB.Lock()
	defer MuB.Unlock()
	f()
}

func LockBThenA() {
	MuB.Lock()
	MuA.Lock()
	MuA.Unlock()
	MuB.Unlock()
}
`},
		"fix/use": {"use.go": `package use

import "fix/locks"

func AThenB() {
	locks.MuA.Lock()
	helper()
	locks.MuA.Unlock()
}

func helper() { locks.LockBThenA() }
`},
	})
	mod := analysis.NewModule(pkgs)
	var chained []analysis.Diagnostic
	direct := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunInModule(pkg, mod, []*analysis.Analyzer{Lockorder})
		if err != nil {
			t.Fatalf("RunInModule(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			switch {
			case strings.HasSuffix(pos.Filename, "use.go"):
				chained = append(chained, d)
			case strings.HasSuffix(pos.Filename, "locks.go") && pos.Line == 18:
				direct++
			default:
				t.Errorf("unexpected diagnostic: %s: %s", pos, d.Message)
			}
		}
	}
	if direct != 1 {
		t.Errorf("got %d diagnostics at locks.go:18 (LockBThenA's MuA.Lock), want 1", direct)
	}
	if len(chained) != 1 {
		t.Fatalf("got %d diagnostics in use.go, want 1: %v", len(chained), chained)
	}
	msg := chained[0].Message
	for _, want := range []string{"via call chain helper", "LockBThenA", "locks.MuA", "opposite order"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}
