package lint

import (
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

func TestDirective(t *testing.T) {
	analysistest.Run(t, Directive, "testdata/src/directive", "repro/internal/lintfix/directive")
}

// TestStaleDirective: a well-formed suppression that suppressed zero
// diagnostics is reported, but only when the analyzer it names ran.
func TestStaleDirective(t *testing.T) {
	analysistest.RunAnalyzers(t, []*analysis.Analyzer{Directive, Floateq},
		"testdata/src/staledirective", "repro/internal/lintfix/staledirective")
}

// TestAnalyzerNamesUnique: directive suppression is keyed by analyzer
// name, so the registry must never grow a duplicate.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
