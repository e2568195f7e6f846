// Command rtwlint runs the repository's domain-specific analyzers (see
// internal/lint and docs/LINTING.md) over the packages matching the
// given patterns:
//
//	rtwlint [-list] [-only name,name] [-json|-sarif] [-fix] [packages...]
//
// With no patterns it checks ./.... Findings from every package are
// merged and sorted by file, line, column, analyzer, message — the
// output is byte-stable across runs and machines. The default format is
// one finding per line:
//
//	path/file.go:line:col: message (analyzer)
//
// -json emits the same findings as a JSON array; -sarif emits a SARIF
// 2.1.0 log (the format GitHub code scanning ingests). -fix applies the
// first suggested fix of every diagnostic that carries one, rewriting
// the files in place (gofmt-formatted), and succeeds when every finding
// was fixable.
//
// Exit status: 0 on a clean run (or, with -fix, when every finding was
// fixed), 1 when findings survive, 2 on usage or load errors. rtwlint
// complements `go vet` (run both; see `make lint`): vet covers the
// generic mistakes, rtwlint the invariants of the paper's analysis
// pipeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one diagnostic with its resolved position, the unit the
// output formats share.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable,omitempty"`

	diag analysis.Diagnostic
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtwlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	asSARIF := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	fix := fs.Bool("fix", false, "apply the first suggested fix of each finding, rewriting files in place")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rtwlint [-list] [-only name,name] [-json|-sarif] [-fix] [packages...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(stderr, "rtwlint: -json and -sarif are mutually exclusive")
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		selected, err := selectAnalyzers(analyzers, *only)
		if err != nil {
			fmt.Fprintln(stderr, "rtwlint:", err)
			return 2
		}
		analyzers = selected
	}

	pkgs, err := loader.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "rtwlint:", err)
		return 2
	}

	// Every package of one Load call shares a FileSet, so diagnostics
	// from different packages sort (and fix) against the same positions.
	// Packages run in parallel inside one module context: the call
	// graph and function summaries are built once
	// (analysis.Module.Shared) and every pass reuses them. Results
	// are indexed by package, then merged in package order, so the
	// output stays byte-identical to a serial run.
	var fset = tokenFileSet(pkgs)
	mod := analysis.NewModule(pkgs)
	perPkg := make([][]analysis.Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *analysis.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each goroutine writes only its own index; wg.Wait orders the reads.
			perPkg[i], errs[i] = analysis.RunInModule(pkg, mod, analyzers)
		}(i, pkg)
	}
	wg.Wait()
	var findings []finding
	for i, pkg := range pkgs {
		if errs[i] != nil {
			fmt.Fprintln(stderr, "rtwlint:", errs[i])
			return 2
		}
		for _, d := range perPkg[i] {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File:     relPath(pos.Filename),
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Fixable:  len(d.SuggestedFixes) > 0,
				diag:     d,
			})
		}
	}
	sortFindings(findings)

	switch {
	case *asJSON:
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "rtwlint:", err)
			return 2
		}
	case *asSARIF:
		if err := writeSARIF(stdout, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "rtwlint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}

	if *fix {
		fixed, files, err := applyFixes(fset, findings)
		if err != nil {
			fmt.Fprintln(stderr, "rtwlint:", err)
			return 2
		}
		unfixed := 0
		for _, f := range findings {
			if !f.Fixable {
				unfixed++
			}
		}
		if fixed > 0 {
			fmt.Fprintf(stderr, "rtwlint: applied %d fix(es) across %d file(s)\n", fixed, files)
		}
		if unfixed > 0 {
			fmt.Fprintf(stderr, "rtwlint: %d finding(s) had no suggested fix\n", unfixed)
			return 1
		}
		return 0
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "rtwlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// sortFindings orders findings by file, line, column, analyzer,
// message — a total order, so the output is byte-stable.
func sortFindings(fs []finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// tokenFileSet returns the FileSet shared by the loaded packages (nil
// when no packages matched).
func tokenFileSet(pkgs []*analysis.Package) *token.FileSet {
	if len(pkgs) == 0 {
		return nil
	}
	return pkgs[0].Fset
}

// writeJSON emits the findings as an indented JSON array ([] when
// clean, never null).
func writeJSON(w io.Writer, findings []finding) error {
	if findings == nil {
		findings = []finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// applyFixes applies the first suggested fix of every finding, grouped
// by file, and rewrites the files in place. It returns the number of
// edits applied and files rewritten.
func applyFixes(fset *token.FileSet, findings []finding) (edits, files int, err error) {
	if fset == nil || len(findings) == 0 {
		return 0, 0, nil
	}
	diags := make([]analysis.Diagnostic, 0, len(findings))
	for _, f := range findings {
		if f.Fixable {
			diags = append(diags, f.diag)
		}
	}
	byFile := analysis.FixEdits(fset, diags)
	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return edits, files, err
		}
		out, err := analysis.ApplyEdits(fset, src, byFile[name])
		if err != nil {
			return edits, files, fmt.Errorf("fixing %s: %w", relPath(name), err)
		}
		info, err := os.Stat(name)
		if err != nil {
			return edits, files, err
		}
		if err := os.WriteFile(name, out, info.Mode().Perm()); err != nil {
			return edits, files, err
		}
		edits += len(byFile[name])
		files++
	}
	return edits, files, nil
}

// selectAnalyzers resolves a comma-separated -only list.
func selectAnalyzers(all []*analysis.Analyzer, names string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// relPath shortens absolute file names to be relative to the working
// directory, keeping output stable across checkouts.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
