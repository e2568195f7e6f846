// Package analysistest runs an analyzer over a fixture directory and
// checks its diagnostics against `// want` expectations, in the style
// of golang.org/x/tools/go/analysis/analysistest (re-implemented here
// because the build environment has no access to x/tools).
//
// A fixture file marks each line that must produce a diagnostic with a
// trailing comment:
//
//	u := 0.1 + 0.2
//	if u == 0.3 { // want `floating-point equality`
//	}
//
// The quoted text (back-quoted or double-quoted, several per comment
// allowed) is a regular expression matched against the diagnostic
// message. The test fails on any unmatched expectation and on any
// unexpected diagnostic.
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// wantRe pulls the quoted regexps out of a `// want ...` comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one `// want` entry.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package rooted at dir, assigns it the given
// import path (analyzers scope rules by package path), applies the
// analyzer, and diffs diagnostics against the `// want` comments.
// It returns the diagnostics for additional custom assertions.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	return RunAnalyzers(t, []*analysis.Analyzer{a}, dir, pkgPath)
}

// RunAnalyzers is Run for a set of analyzers sharing one pass — needed
// by checks that only make sense jointly, e.g. stale-directive
// detection (a directive is stale only relative to the analyzers that
// actually ran).
func RunAnalyzers(t *testing.T, as []*analysis.Analyzer, dir, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	pkg := Load(t, dir, pkgPath)
	diags, err := analysis.Run(pkg, as)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	check(t, pkg, diags)
	return diags
}

// Load parses and type-checks every .go file under dir as one package
// with the given import path. Exposed so tests can run analyzers with
// custom assertions (e.g. detrand's package-scope rule) instead of the
// `// want` protocol.
func Load(t *testing.T, dir, pkgPath string) *analysis.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	fset := token.NewFileSet()
	pkg, err := loader.CheckFiles(fset, pkgPath, dir, names, loader.StdImporter(fset))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// check diffs diagnostics against expectations.
func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	expects := expectations(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, e := range expects {
			if e.matched || e.file != filepath.Base(pos.Filename) || e.line != pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// expectations collects the `// want` comments of the package.
func expectations(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := wantText(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return out
}

// wantText extracts the payload of a want comment, in either form:
// `// want ...` or `/* want ... */` (the block form is for lines whose
// line comment is itself under test, e.g. rtwlint directives).
func wantText(comment string) (string, bool) {
	if text, ok := strings.CutPrefix(comment, "// want "); ok {
		return text, true
	}
	if inner, ok := strings.CutPrefix(comment, "/*"); ok {
		inner = strings.TrimSuffix(inner, "*/")
		return strings.CutPrefix(strings.TrimSpace(inner), "want ")
	}
	return "", false
}
