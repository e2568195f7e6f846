package lint

import (
	"repro/internal/lint/analysis"
)

// Directive validates the suppression mechanism itself: every
// //rtwlint:ignore comment must name a known analyzer and carry a
// justification. Malformed directives never suppress anything (the
// framework ignores them), so without this check a typo like
// `//rtwlint:ignore floateqq` would silently leave the finding
// unsuppressed in one build and the directive unexplained forever.
//
// The Finish hook runs after every analyzer of the invocation has
// completed and reports stale directives: a well-formed suppression
// that suppressed zero diagnostics is itself an error — the code it
// excused has been fixed (or the analyzer sharpened), and keeping the
// directive would silently swallow the next real finding on that line.
// A directive naming an analyzer that did not run (e.g. under -only) is
// never judged stale.
var Directive = &analysis.Analyzer{
	Name:   "directive",
	Doc:    "validates //rtwlint:ignore suppression directives and flags stale ones",
	Run:    runDirective,
	Finish: finishDirective,
}

func finishDirective(pass *analysis.Pass, unused []analysis.Directive) error {
	for _, d := range unused {
		pass.Reportf(d.Pos,
			"stale rtwlint directive: it suppresses no %q diagnostics; delete it (or fix the regression it was hiding)",
			d.Analyzer)
	}
	return nil
}

// knownAnalyzers is computed lazily (not from Analyzers() at init) to
// avoid an initialization cycle: the registry contains Directive.
func knownAnalyzers() map[string]bool {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	return known
}

func runDirective(pass *analysis.Pass) error {
	known := knownAnalyzers()
	for _, d := range analysis.Directives(pass.Fset, pass.Files) {
		switch {
		case d.Analyzer == "":
			pass.Reportf(d.Pos,
				"malformed rtwlint directive: missing analyzer name (want //rtwlint:ignore <analyzer> <reason>)")
		case !known[d.Analyzer]:
			pass.Reportf(d.Pos,
				"rtwlint directive names unknown analyzer %q", d.Analyzer)
		case d.Reason == "":
			pass.Reportf(d.Pos,
				"rtwlint directive suppressing %q has no justification; say why the finding is safe", d.Analyzer)
		}
	}
	return nil
}
