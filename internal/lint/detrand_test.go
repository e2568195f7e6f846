package lint

import (
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

func TestDetrand(t *testing.T) {
	// Loaded under internal/sim so the scope rule applies.
	analysistest.Run(t, Detrand, "testdata/src/detrand", "repro/internal/sim/lintfix")
}

// TestDetrandScope: the same violations produce no findings outside the
// scoped packages (detrandScope).
func TestDetrandScope(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/src/detrand", "repro/internal/viz/lintfix")
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{Detrand})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("detrand fired outside its package scope: %+v", diags)
	}
}

func TestDetrandScopeRule(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/sim":         true,
		"repro/internal/sim/lintfix": true,
		"repro/internal/exp":         true,
		"repro/internal/core":        true,
		"internal/core":              true,
		"repro/internal/eventsim":    true,
		"repro/internal/mc":          true,
		"repro/internal/explore":     true,
		"repro/internal/workload":    true,
		"repro/internal/metrics":     true,
		"repro/cmd/reproduce":        true,
		"repro/cmd/tables":           true,
		"repro/cmd/figures":          true,
		"repro/cmd/crosscheck":       true,
		"repro/cmd/netsim":           true,
		"repro/cmd/rtwmc":            true,
		"repro/cmd/rtwexplore":       true,
		"repro/internal/viz":         false,
		"repro/cmd/rtworm":           false,
		"repro/internal/simulator":   false, // prefix of a segment is not a match
		"repro/internal/loadgen":     false, // measures wall-clock time
		"repro/internal/server":      false,
		"repro/cmd/rtwormload":       false,
		"repro/cmd/benchjson":        false, // map ranges write maps keyed by the range key
	} {
		if got := inDetrandScope(path); got != want {
			t.Errorf("inDetrandScope(%q) = %v, want %v", path, got, want)
		}
	}
}
