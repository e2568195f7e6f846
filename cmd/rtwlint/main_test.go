package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirRepoRoot runs the driver from the module root so ./... patterns
// resolve (tests execute in cmd/rtwlint).
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(wd + "/../..")
}

func TestListFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"floateq", "detrand", "errdrop", "directive", "intoverflow"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-only", "nosuch", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr %q should name the unknown analyzer", errb.String())
	}
}

// TestCleanPackage: the framework package itself must be clean under
// the full suite — and this exercises the loader end to end.
func TestCleanPackage(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	if code := run([]string{"./internal/lint/analysis"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("unexpected findings:\n%s", out.String())
	}
}

// TestFindingsExitCode: a package seeded with violations must produce
// findings and exit 1. The fixture directory doubles as the seed; it is
// loaded here as a real package via a temporary module-relative
// pattern, so use the lint testdata through the loader's eyes.
func TestFindingsExitCode(t *testing.T) {
	chdirRepoRoot(t)
	dir := t.TempDir()
	src := `package seeded

func mean(a, b float64) bool { return a == b }
`
	if err := os.WriteFile(dir+"/seeded.go", []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod := "module seeded\n\ngo 1.22\n"
	if err := os.WriteFile(dir+"/go.mod", []byte(mod), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	var out, errb strings.Builder
	if code := run([]string{"-only", "floateq", "."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "floating-point == comparison") {
		t.Errorf("finding not printed:\n%s", out.String())
	}
}

// seedModule writes a throwaway module under a temp dir and chdirs into
// it. files maps relative path -> content.
func seedModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module seeded\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// TestSortAcrossPackages: findings are merged across packages and
// sorted by file path, not reported package-by-package. The nested
// package's file sorts before the root's, while package order (root
// first) would print it last — and repeated runs are byte-identical.
func TestSortAcrossPackages(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"root.go":       "package seeded\n\nfunc R(a, b float64) bool { return a == b }\n",
		"inner/file.go": "package inner\n\nfunc I(a, b float64) bool { return a == b }\n",
	})
	var out1, out2, errb strings.Builder
	if code := run([]string{"-only", "floateq", "./..."}, &out1, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if code := run([]string{"-only", "floateq", "./..."}, &out2, &errb); code != 1 {
		t.Fatalf("second run exit %d, want 1", code)
	}
	if out1.String() != out2.String() {
		t.Errorf("output not byte-stable:\n--- first ---\n%s--- second ---\n%s", out1.String(), out2.String())
	}
	lines := strings.Split(strings.TrimSpace(out1.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 findings, got %d:\n%s", len(lines), out1.String())
	}
	if !strings.HasPrefix(lines[0], "inner/file.go:") || !strings.HasPrefix(lines[1], "root.go:") {
		t.Errorf("findings not sorted by file across packages:\n%s", out1.String())
	}
}

// TestJSONOutput: -json emits a parseable array carrying position,
// analyzer, and message.
func TestJSONOutput(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"seeded.go": "package seeded\n\nfunc R(a, b float64) bool { return a == b }\n",
	})
	var out, errb strings.Builder
	if code := run([]string{"-only", "floateq", "-json", "."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	var got []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %d", len(got))
	}
	f := got[0]
	if f.File != "seeded.go" || f.Line != 3 || f.Column == 0 || f.Analyzer != "floateq" ||
		!strings.Contains(f.Message, "floating-point == comparison") {
		t.Errorf("unexpected finding: %+v", f)
	}
}

// TestSARIFOutput: -sarif output parses as SARIF 2.1.0 — version
// pinned, schema URI present, driver named, one result per finding
// with a physical location, and the rule table covering the analyzers
// that ran. A clean run still emits a valid log with zero results.
func TestSARIFOutput(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"seeded.go": "package seeded\n\nfunc R(a, b float64) bool { return a == b }\n",
	})
	var out, errb strings.Builder
	if code := run([]string{"-only", "floateq", "-sarif", "."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("-sarif output does not parse: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("not a SARIF 2.1.0 log: version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "rtwlint" {
		t.Errorf("driver name %q, want rtwlint", run0.Tool.Driver.Name)
	}
	if len(run0.Tool.Driver.Rules) != 1 || run0.Tool.Driver.Rules[0].ID != "floateq" ||
		run0.Tool.Driver.Rules[0].ShortDescription.Text == "" {
		t.Errorf("rule table wrong: %+v", run0.Tool.Driver.Rules)
	}
	if len(run0.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(run0.Results))
	}
	r := run0.Results[0]
	loc := r.Locations[0].PhysicalLocation
	if r.RuleID != "floateq" || r.Level != "error" || r.Message.Text == "" ||
		loc.ArtifactLocation.URI != "seeded.go" || loc.Region.StartLine != 3 || loc.Region.StartColumn == 0 {
		t.Errorf("unexpected result: %+v", r)
	}

	// A clean package still yields a valid, empty-results log.
	seedModule(t, map[string]string{"clean.go": "package seeded\n\nfunc OK() {}\n"})
	out.Reset()
	if code := run([]string{"-sarif", "."}, &out, &errb); code != 0 {
		t.Fatalf("clean run exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `"results": []`) {
		t.Errorf("clean SARIF log should carry an empty results array:\n%s", out.String())
	}
}

// TestJSONDeterminism: two full-suite runs over a multi-package module
// — including an intoverflow finding that needs another package's
// Ranges summary, shared by parallel per-package passes — must produce
// byte-identical JSON. This pins the merge-in-package-order contract
// of the parallel driver and the determinism of the summary engine.
func TestJSONDeterminism(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"caps/caps.go": "package caps\n\nfunc Horizon() int { return 1 << 62 }\n",
		"sched/sched.go": `package sched

import "seeded/caps"

func Span() int {
	horizon := caps.Horizon()
	return horizon + horizon
}
`,
		"calc/calc.go": "package calc\n\nfunc Eq(a, b float64) bool { return a == b }\n",
	})
	var out1, out2, errb strings.Builder
	if code := run([]string{"-json", "./..."}, &out1, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if code := run([]string{"-json", "./..."}, &out2, &errb); code != 1 {
		t.Fatalf("second run exit %d, want 1", code)
	}
	if out1.String() != out2.String() {
		t.Errorf("JSON output not byte-identical across runs:\n--- first ---\n%s--- second ---\n%s",
			out1.String(), out2.String())
	}
	var got []struct {
		File     string `json:"file"`
		Analyzer string `json:"analyzer"`
	}
	if err := json.Unmarshal([]byte(out1.String()), &got); err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, out1.String())
	}
	byAnalyzer := map[string]int{}
	for _, f := range got {
		byAnalyzer[f.Analyzer]++
	}
	if byAnalyzer["intoverflow"] == 0 || byAnalyzer["floateq"] == 0 {
		t.Errorf("want findings from both tiers (intoverflow, floateq), got %v", byAnalyzer)
	}
}

// TestSARIFCrashExitCode: a package that fails to load must exit 2 —
// distinct from exit 1 (findings) — so callers like `make lint-sarif`
// can tell a crash from a log with results. The error goes to stderr,
// never into the SARIF stream.
func TestSARIFCrashExitCode(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"broken.go": "package seeded\n\nfunc oops() { return undefinedIdent }\n",
	})
	var out, errb strings.Builder
	if code := run([]string{"-sarif", "."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 for a load failure\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("crash must not write partial SARIF to stdout:\n%s", out.String())
	}
	if errb.String() == "" {
		t.Error("load failure should be reported on stderr")
	}
}

// TestMakefileSARIFPropagatesFailure pins the lint-sarif recipe: the
// artifact is written unconditionally, but the exit status must be
// propagated rather than masked with `|| true` — a crash (exit 2) has
// to fail the target instead of uploading an empty or stale log.
func TestMakefileSARIFPropagatesFailure(t *testing.T) {
	chdirRepoRoot(t)
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	recipe := ""
	for i, line := range lines {
		if strings.HasPrefix(line, "lint-sarif:") {
			for _, l := range lines[i+1:] {
				if !strings.HasPrefix(l, "\t") {
					break
				}
				recipe += l + "\n"
			}
		}
	}
	if recipe == "" {
		t.Fatal("lint-sarif target not found in Makefile")
	}
	if strings.Contains(recipe, "|| true") {
		t.Errorf("lint-sarif masks rtwlint's exit status with `|| true`:\n%s", recipe)
	}
	if !strings.Contains(recipe, "exit $$status") {
		t.Errorf("lint-sarif should capture and propagate the exit status:\n%s", recipe)
	}
}

// TestFixRewritesFiles: -fix applies the stale-directive delete fix in
// place, after which the package is clean.
func TestFixRewritesFiles(t *testing.T) {
	chdirRepoRoot(t)
	src := `package seeded

func stale(a, b int) bool {
	//rtwlint:ignore floateq integers cannot trip floateq
	return a == b
}
`
	seedModule(t, map[string]string{"seeded.go": src})
	var out, errb strings.Builder
	if code := run([]string{"-only", "directive,floateq", "-fix", "."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (every finding fixable)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "stale rtwlint directive") {
		t.Errorf("stale finding not printed:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "applied 1 fix(es) across 1 file(s)") {
		t.Errorf("fix summary missing:\n%s", errb.String())
	}
	fixed, err := os.ReadFile("seeded.go")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(fixed), "rtwlint:ignore") {
		t.Errorf("stale directive not deleted:\n%s", fixed)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-only", "directive,floateq", "."}, &out, &errb); code != 0 {
		t.Errorf("package not clean after -fix: exit %d\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
}

// TestFixIdempotent: applying -fix twice is a fixed point — the second
// run finds nothing fixable, applies zero edits, and leaves every file
// byte-identical to the first run's output. A fix whose replacement
// re-triggers its own (or another) analyzer would oscillate here.
func TestFixIdempotent(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"a.go": `package seeded

func staleA(a, b int) bool {
	//rtwlint:ignore floateq integers cannot trip floateq
	return a == b
}
`,
		"b.go": `package seeded

func staleB(x int) int {
	//rtwlint:ignore intoverflow -- obsolete: the multiply below was removed
	return x
}
`,
	})
	var out, errb strings.Builder
	if code := run([]string{"-only", "directive,floateq,intoverflow", "-fix", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("first -fix: exit %d, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "applied 2 fix(es) across 2 file(s)") {
		t.Fatalf("first -fix should apply both stale-directive deletes:\n%s", errb.String())
	}
	after1 := map[string][]byte{}
	for _, name := range []string{"a.go", "b.go"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		after1[name] = data
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-only", "directive,floateq,intoverflow", "-fix", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("second -fix: exit %d, want 0 (clean)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if strings.Contains(errb.String(), "applied") {
		t.Errorf("second -fix applied edits on an already-fixed tree:\n%s", errb.String())
	}
	for name, want := range after1 {
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s changed on the second -fix pass:\n--- after first\n%s\n--- after second\n%s",
				name, want, got)
		}
	}
}
