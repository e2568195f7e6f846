package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/summary"
)

// moduleEngine returns the run-wide summary engine (call graph +
// per-function lock/sort facts), built once per rtwlint invocation and
// shared by every interprocedural analyzer pass (lockorder's call
// effects, detrand's sorted-in-callee suppression, the value-range
// tier's callee result ranges).
// Engine methods are internally synchronized, so concurrent per-package
// passes may query it freely.
func moduleEngine(pass *analysis.Pass) *summary.Engine {
	return pass.Module.Shared("interproc/summary", func() any {
		return summary.New(pass.Module.Packages)
	}).(*summary.Engine)
}
