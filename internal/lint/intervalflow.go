package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
	"repro/internal/lint/interval"
)

// funcIntervals is the converged interval analysis of one function
// body, shared by the three value-range analyzers (intoverflow,
// deadrange, shiftwidth) so each function's fixpoint runs once per
// package run, not once per analyzer.
type funcIntervals struct {
	fn  cfg.Func
	res *interval.FuncResult
}

// intervalFuncs returns the per-function interval results of the
// pass's package, computing them on first request and caching them in
// the package run's shared store. Test files are skipped, like every
// rtwlint analyzer does.
func intervalFuncs(pass *analysis.Pass) []*funcIntervals {
	return pass.Shared("interval", func() any {
		var out []*funcIntervals
		for _, f := range pass.Files {
			if analysis.IsTestFile(pass.Fset, f.Pos()) {
				continue
			}
			for _, fn := range cfg.FuncBodies(f) {
				lat := interval.NewEnvLattice(pass.TypesInfo, fn.Node, fn.Body)
				out = append(out, &funcIntervals{fn: fn, res: interval.Analyze(fn.Body, lat)})
			}
		}
		return out
	}).([]*funcIntervals)
}

// replayBlocks walks every reached block of a converged function in
// index order, handing the visitor each CFG node together with the env
// in force immediately before it executes. Bottom envs (infeasible
// refinements) are skipped — nothing they "prove" corresponds to a
// real execution.
func replayBlocks(fi *funcIntervals, visit func(env interval.Env, b *cfg.Block, n ast.Node)) {
	for _, b := range fi.res.G.Blocks {
		env, ok := fi.res.InEnv(b)
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			if !env.Bottom() {
				visit(env, b, n)
			}
			env = fi.res.Step(n, env)
		}
	}
}
