// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis model, just large enough to host
// the rtwlint analyzers. The container this repository builds in has no
// network access and no module cache, so the real x/tools packages are
// unavailable; the API below mirrors theirs (Analyzer, Pass, Diagnostic)
// so the analyzers port over verbatim if x/tools ever becomes
// available.
//
// On top of the x/tools model it adds one repo-specific feature:
// suppression directives. A comment of the form
//
//	//rtwlint:ignore <analyzer> <reason>
//
// on the flagged line, or on the line immediately above it, suppresses
// that analyzer's diagnostics for the flagged line. The reason is
// mandatory: an unjustified suppression is itself malformed and is
// reported by the `directive` analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rtwlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `rtwlint -list`.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
	// Finish, if set, runs after every analyzer of the run has
	// completed its Run over the package, with the well-formed
	// suppression directives that (a) name an analyzer that actually
	// ran and (b) suppressed nothing. The directive analyzer uses it to
	// flag stale ignores; most analyzers leave it nil.
	Finish func(pass *Pass, unused []Directive) error
}

// Pass holds the inputs the framework hands an analyzer for one
// package, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the whole-run view shared by every package of one
	// rtwlint invocation; detrand and the value-range tier read the
	// call graph and function summaries from it. Never nil: a
	// single-package run gets a module of one package.
	Module *Module

	// report receives every diagnostic, after suppression filtering.
	report func(Diagnostic)
	// suppressed knows the //rtwlint:ignore directives of the package.
	suppressed func(name string, pos token.Pos) bool
}

// Module is the cross-package context of one run: every in-module
// package being checked, plus a keyed store for state computed once and
// shared by all per-package passes (the call graph and summary engine
// live here). Shared is safe for concurrent per-package passes: the
// first caller of a key builds while the others wait, so an expensive
// module-wide structure is computed exactly once.
type Module struct {
	// Packages is every package of the run, sorted by import path.
	Packages []*Package

	mu     sync.Mutex
	shared map[string]*sharedEntry
}

type sharedEntry struct {
	once sync.Once
	val  any
}

// NewModule builds the run context over the given packages (sorted by
// import path; the slice is not retained beyond the copy).
func NewModule(pkgs []*Package) *Module {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	return &Module{Packages: sorted, shared: map[string]*sharedEntry{}}
}

// Shared returns the module-wide value under key, building it with
// build on first use. Concurrent callers of the same key block until
// the single build completes.
func (m *Module) Shared(key string, build func() any) any {
	m.mu.Lock()
	e, ok := m.shared[key]
	if !ok {
		e = &sharedEntry{}
		m.shared[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// Package returns the module package with the given import path, or
// nil.
func (m *Module) Package(path string) *Package {
	i := sort.Search(len(m.Packages), func(i int) bool { return m.Packages[i].Path >= path })
	if i < len(m.Packages) && m.Packages[i].Path == path {
		return m.Packages[i]
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: end of the flagged region (NoPos = unknown)
	Message  string
	Analyzer string
	// SuggestedFixes are machine-applicable repairs for the finding;
	// `rtwlint -fix` applies the first fix of each diagnostic (see
	// cmd/rtwlint), and the analysistest harness verifies fixed output
	// against .golden files.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained repair: applying all of its edits
// resolves the diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. End ==
// Pos inserts; empty NewText deletes.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Report emits a diagnostic unless a directive suppresses it.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	if p.suppressed != nil && p.suppressed(d.Analyzer, d.Pos) {
		return
	}
	p.report(d)
}

// Reportf is Report with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// IgnorePrefix starts a suppression directive comment.
const IgnorePrefix = "//rtwlint:ignore"

// Directive is one parsed //rtwlint:ignore comment.
type Directive struct {
	Pos      token.Pos
	End      token.Pos // end of the comment, for delete fixes
	File     string
	Line     int    // line the directive is written on
	Analyzer string // analyzer name being suppressed ("" if malformed)
	Reason   string // justification ("" if missing)
}

// Directives extracts every //rtwlint:ignore comment of the package,
// including malformed ones (empty Analyzer or Reason), so the
// `directive` analyzer can validate them.
func Directives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //rtwlint:ignorex — not ours
				}
				pos := fset.Position(c.Pos())
				d := Directive{Pos: c.Pos(), End: c.End(), File: pos.Filename, Line: pos.Line}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					d.Analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.Reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// suppressor holds the suppression state of one package run: a
// well-formed directive for analyzer A on line N suppresses A's
// diagnostics on lines N and N+1 of the same file, and every
// suppression marks the directive as used, so a directive left with
// zero hits after a full run is provably stale.
type suppressor struct {
	fset  *token.FileSet
	dirs  []Directive
	index map[supKey]int // line key -> index into dirs
	used  []bool         // aligned with dirs
}

type supKey struct {
	file string
	name string
	line int
}

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	s := &suppressor{fset: fset, index: map[supKey]int{}}
	for _, d := range Directives(fset, files) {
		if d.Analyzer == "" || d.Reason == "" {
			continue // malformed: never suppresses (the directive analyzer reports it)
		}
		i := len(s.dirs)
		s.dirs = append(s.dirs, d)
		s.index[supKey{d.File, d.Analyzer, d.Line}] = i
		s.index[supKey{d.File, d.Analyzer, d.Line + 1}] = i
	}
	s.used = make([]bool, len(s.dirs))
	return s
}

// suppress reports whether a directive covers the diagnostic, marking
// the directive used.
func (s *suppressor) suppress(name string, pos token.Pos) bool {
	if len(s.index) == 0 || !pos.IsValid() {
		return false
	}
	p := s.fset.Position(pos)
	i, ok := s.index[supKey{p.Filename, name, p.Line}]
	if !ok {
		return false
	}
	s.used[i] = true
	return true
}

// unused returns the well-formed directives that suppressed nothing,
// restricted to directives naming an analyzer in ran — a directive for
// an analyzer that did not run this time cannot be judged stale.
func (s *suppressor) unused(ran map[string]bool) []Directive {
	var out []Directive
	for i, d := range s.dirs {
		if !s.used[i] && ran[d.Analyzer] {
			out = append(out, d)
		}
	}
	return out
}

// Run applies every analyzer to the package and returns the surviving
// diagnostics sorted by position. After every analyzer's Run, the
// Finish hooks see the directives that suppressed nothing (stale
// ignores). An analyzer returning an error aborts the run. The package
// runs as a module of itself; multi-package runs go through
// RunInModule.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunInModule(pkg, NewModule([]*Package{pkg}), analyzers)
}

// RunInModule is Run with an explicit whole-run module context, so the
// function summaries cover every package of the invocation while the
// analyzers report only on pkg. Safe to call concurrently for different
// packages of the same module.
func RunInModule(pkg *Package, mod *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sup := newSuppressor(pkg.Fset, pkg.Files)
	ran := make(map[string]bool, len(analyzers))
	passes := make([]*Pass, len(analyzers))
	for i, a := range analyzers {
		ran[a.Name] = true
		passes[i] = &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Pkg,
			TypesInfo:  pkg.Info,
			Module:     mod,
			report:     func(d Diagnostic) { diags = append(diags, d) },
			suppressed: sup.suppress,
		}
		if err := a.Run(passes[i]); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	for i, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(passes[i], sup.unused(ran)); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// IsTestFile reports whether the file the position belongs to is a
// _test.go file. The analyzers skip test files: exact golden values and
// deliberately hostile inputs are legitimate there, and the race
// detector — not a linter — is the tool that guards test code.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
