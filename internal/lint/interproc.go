package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/summary"
)

// moduleEngine returns the run-wide summary engine (call graph plus
// per-function Sorts and Ranges facts), built once per rtwlint
// invocation and shared by every pass that reads it: detrand's
// sorted-in-callee suppression and the value-range tier's callee
// result ranges. The engine is read-only once built, so concurrent
// per-package passes may query it freely.
func moduleEngine(pass *analysis.Pass) *summary.Engine {
	return pass.Module.Shared("interproc/summary", func() any {
		return summary.New(pass.Module.Packages)
	}).(*summary.Engine)
}
