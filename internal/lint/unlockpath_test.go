package lint

import (
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

// TestUnlockpath checks lockorder's return-while-held diagnostics and
// verifies the suggested defer-unlock fixes against
// unlockpath.go.golden.
func TestUnlockpath(t *testing.T) {
	analysistest.RunWithFixes(t, []*analysis.Analyzer{Lockorder},
		"testdata/src/unlockpath", "repro/internal/lintfix/unlockpath")
}
