// Command rtwlint runs the repository's domain-specific analyzers (see
// internal/lint and docs/LINTING.md) over the packages matching the
// given patterns:
//
//	rtwlint [-list] [-only name,name] [packages...]
//
// With no patterns it checks ./.... Findings from every package are
// merged and sorted by file, line, column, analyzer, message — the
// output is byte-stable across runs and machines — and printed one per
// line:
//
//	path/file.go:line:col: message (analyzer)
//
// Exit status: 0 on a clean run, 1 when findings survive, 2 on usage or
// load errors. rtwlint complements `go vet` (run both; see `make
// lint`): vet covers the generic mistakes, rtwlint the invariants of
// the paper's analysis pipeline.
package main

import (
	"flag"
	"fmt"
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

// finding is one diagnostic with its resolved position.
type finding struct {
	File     string
	Line     int
	Column   int
	Analyzer string
	Message  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtwlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rtwlint [-list] [-only name,name] [packages...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
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

	// Packages run in parallel and share nothing: each run caches its
	// own interval fixpoints. Results are indexed by package, then
	// merged and sorted, so the output stays byte-identical to a serial
	// run.
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
			perPkg[i], errs[i] = analysis.Run(pkg, analyzers)
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
			})
		}
	}
	sortFindings(findings)
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
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
