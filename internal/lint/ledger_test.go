package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// TestCatchLedger pins the directive column of docs/LINTING.md's catch
// ledger to the code: for every analyzer, the count and the per-file
// counts it lists must equal the module's //rtwlint:ignore directives
// naming that analyzer, outside test files and testdata. Every
// registered analyzer has a row and every row names one.
func TestCatchLedger(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "docs", "LINTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	ledger := parseLedger(t, string(doc))

	want := map[string]map[string]int{}
	for _, a := range Analyzers() {
		want[a.Name] = map[string]int{}
	}
	for _, d := range moduleDirectives(t, root) {
		if want[d.Analyzer] == nil {
			t.Errorf("%s:%d: directive names unknown analyzer %q", d.File, d.Line, d.Analyzer)
			continue
		}
		want[d.Analyzer][d.File]++
	}
	if !reflect.DeepEqual(ledger, want) {
		t.Errorf("catch ledger in docs/LINTING.md does not match the //rtwlint:ignore directives\nledger: %v\ncode:   %v", ledger, want)
	}
}

var (
	ledgerCount = regexp.MustCompile("^([0-9]+)(?::|$)")
	ledgerFile  = regexp.MustCompile("`([^`]+)`(?: ×([0-9]+))?")
)

// parseLedger reads the catch ledger table: analyzer -> file -> count.
// A row's last cell is "N" or "N: `file` ×k, `file`, ..." (×1 when the
// multiplier is omitted), and N must equal the sum of the file counts.
func parseLedger(t *testing.T, doc string) map[string]map[string]int {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## Catch ledger\n")
	if !ok {
		t.Fatal("docs/LINTING.md has no Catch ledger section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	out := map[string]map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "| ") || len(cells) != 3 || cells[0] == "Analyzer" {
			continue
		}
		m := ledgerCount.FindStringSubmatch(cells[2])
		if m == nil {
			t.Fatalf("ledger row %q: directive cell must start with a count", line)
		}
		total, _ := strconv.Atoi(m[1])
		files := map[string]int{}
		sum := 0
		for _, f := range ledgerFile.FindAllStringSubmatch(cells[2], -1) {
			k := 1
			if f[2] != "" {
				k, _ = strconv.Atoi(f[2])
			}
			files[f[1]] += k
			sum += k
		}
		if sum != total {
			t.Errorf("ledger row %s: count %d, but its files add up to %d", cells[0], total, sum)
		}
		out[cells[0]] = files
	}
	return out
}

// moduleDirectives parses every non-test Go file of the module under
// root, skipping testdata, hidden and underscore directories and nested
// modules, and returns its directives with slash-separated file paths
// relative to root.
func moduleDirectives(t *testing.T, root string) []analysis.Directive {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := analysis.Directives(fset, files)
	for i := range dirs {
		rel, err := filepath.Rel(root, dirs[i].File)
		if err != nil {
			t.Fatal(err)
		}
		dirs[i].File = filepath.ToSlash(rel)
	}
	return dirs
}
