package main

import (
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

// TestTextDeterminism: two full-suite runs over a two-package module,
// one with a floateq finding and one with an intoverflow finding inside
// a single function, must print byte-identical text. This pins the
// merge-then-sort contract of the parallel package runs.
func TestTextDeterminism(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"sched/sched.go": `package sched

func Span(horizon int) int {
	if horizon > 1<<62 {
		horizon = 1 << 62
	}
	return horizon + horizon
}
`,
		"calc/calc.go": "package calc\n\nfunc Eq(a, b float64) bool { return a == b }\n",
	})
	var out1, out2, errb strings.Builder
	if code := run([]string{"./..."}, &out1, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if code := run([]string{"./..."}, &out2, &errb); code != 1 {
		t.Fatalf("second run exit %d, want 1", code)
	}
	if out1.String() != out2.String() {
		t.Errorf("output not byte-identical across runs:\n--- first ---\n%s--- second ---\n%s",
			out1.String(), out2.String())
	}
	for _, want := range []string{"calc/calc.go:3:", "(floateq)", "sched/sched.go:7:", "(intoverflow)"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out1.String())
		}
	}
}

// TestLoadFailureExitCode: a package that fails to load must exit 2 —
// distinct from exit 1 (findings) — with the error on stderr and
// nothing on stdout, so a caller never mistakes a crash for a clean or
// partial result.
func TestLoadFailureExitCode(t *testing.T) {
	chdirRepoRoot(t)
	seedModule(t, map[string]string{
		"broken.go": "package seeded\n\nfunc oops() { return undefinedIdent }\n",
	})
	var out, errb strings.Builder
	if code := run([]string{"."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 for a load failure\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("a load failure must not write findings to stdout:\n%s", out.String())
	}
	if errb.String() == "" {
		t.Error("load failure should be reported on stderr")
	}
}
