// Package linttest loads multi-package in-memory fixtures for the
// callgraph and summary tests. The analysistest harness loads one
// package per directory; these tests need several packages importing
// each other, which this package type-checks together over one shared
// FileSet — the same layout the real loader produces.
package linttest

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// LoadPackages writes the fixture sources to a temp dir and
// type-checks them as a set of packages: pkgs maps import path ->
// file name -> content. Cross-imports between fixture packages
// resolve to each other; everything else goes to the source importer.
// The result is sorted by import path and shares one FileSet.
func LoadPackages(t *testing.T, pkgs map[string]map[string]string) []*analysis.Package {
	t.Helper()
	root := t.TempDir()
	fset := token.NewFileSet()
	m := &memImporter{
		fset:    fset,
		dirs:    map[string]string{},
		files:   map[string][]string{},
		checked: map[string]*analysis.Package{},
		std:     loader.StdImporter(fset),
	}
	paths := make([]string, 0, len(pkgs))
	for path, files := range pkgs {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("linttest: mkdir %s: %v", dir, err)
		}
		names := make([]string, 0, len(files))
		for name, src := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatalf("linttest: write %s: %v", name, err)
			}
			names = append(names, name)
		}
		sort.Strings(names)
		m.dirs[path] = dir
		m.files[path] = names
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*analysis.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := m.check(path)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		out = append(out, pkg)
	}
	return out
}

// memImporter resolves fixture cross-imports by type-checking the
// fixture package on demand, memoized; other paths fall through to the
// standard-library source importer.
type memImporter struct {
	fset    *token.FileSet
	dirs    map[string]string
	files   map[string][]string
	checked map[string]*analysis.Package
	std     types.Importer
}

func (m *memImporter) Import(path string) (*types.Package, error) {
	if _, ok := m.dirs[path]; ok {
		pkg, err := m.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return m.std.Import(path)
}

func (m *memImporter) check(path string) (*analysis.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	pkg, err := loader.CheckFiles(m.fset, path, m.dirs[path], m.files[path], m)
	if err != nil {
		return nil, err
	}
	m.checked[path] = pkg
	return pkg, nil
}

// PkgNamed returns the loaded package whose import path ends with the
// given element, failing the test when absent.
func PkgNamed(t *testing.T, pkgs []*analysis.Package, path string) *analysis.Package {
	t.Helper()
	for _, p := range pkgs {
		if p.Path == path || strings.HasSuffix(p.Path, "/"+path) {
			return p
		}
	}
	t.Fatalf("linttest: no package %q among fixtures", path)
	return nil
}
