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

	// report receives every diagnostic, after suppression filtering.
	report func(Diagnostic)
	// suppressed knows the //rtwlint:ignore directives of the package.
	suppressed func(name string, pos token.Pos) bool
	// shared is the store of one package run, the same map in every
	// pass of that run.
	shared map[string]any
}

// Shared returns the value stored under key for this package run,
// building it with build on first use. Every analyzer of the run sees
// the same value, so work several analyzers need (the value-range
// tier's interval fixpoints) runs once per package. Analyzers run one
// after another, so the store needs no lock.
func (p *Pass) Shared(key string, build func() any) any {
	v, ok := p.shared[key]
	if !ok {
		v = build()
		p.shared[key] = v
	}
	return v
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
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
				d := Directive{Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
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
// ignores). An analyzer returning an error aborts the run. Runs of
// different packages share nothing, so they may proceed concurrently.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sup := newSuppressor(pkg.Fset, pkg.Files)
	ran := make(map[string]bool, len(analyzers))
	shared := map[string]any{}
	passes := make([]*Pass, len(analyzers))
	for i, a := range analyzers {
		ran[a.Name] = true
		passes[i] = &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Pkg,
			TypesInfo:  pkg.Info,
			report:     func(d Diagnostic) { diags = append(diags, d) },
			suppressed: sup.suppress,
			shared:     shared,
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
