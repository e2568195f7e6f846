// Fixture for stale-directive detection: a well-formed suppression
// that suppresses zero diagnostics is reported by the directive
// analyzer's Finish hook, but only when the named analyzer actually
// ran. The test runs Directive + Floateq (not Detrand) over this file.
package staledirective

// live: the directive below suppresses a real floateq finding, so it
// is used and must not be reported.
func live(a, b float64) bool {
	//rtwlint:ignore floateq fixture exercises a live suppression
	return a == b
}

// stale: integer comparison never trips floateq, so this suppression
// hides nothing and is flagged.
func stale(a, b int) bool {
	/* want `stale rtwlint directive` */ //rtwlint:ignore floateq integers cannot produce this finding
	return a == b
}

// notJudged: detrand is not part of this run, so its directive cannot
// be judged stale and stays silent.
func notJudged() int {
	//rtwlint:ignore detrand fixture runs without the detrand analyzer
	return 1
}
