// Package lint hosts the rtwlint analyzers: domain-specific correctness
// checks for this wormhole-switching analysis codebase. Each analyzer
// guards an invariant the paper's algorithm (HP sets → BDG → timing
// diagrams → Cal_U) or its evaluation harness depends on:
//
//   - floateq: timing quantities must never be compared with == / != in
//     floating point; bounds are integer flit times, statistics need an
//     epsilon.
//   - detrand: the packages whose output is pinned (the simulators,
//     the study harnesses and the tools that print them) must be
//     reproducible — no wall clock, no unseeded global randomness, no
//     map-iteration-order-dependent output.
//   - errdrop: error returns from this module's own functions must not
//     be silently discarded (stricter than go vet, scoped to repro/...).
//   - directive: every //rtwlint:ignore suppression must name a known
//     analyzer, carry a justification, and actually suppress something.
//
// The flow-sensitive analyzer runs on the internal/lint/cfg +
// internal/lint/dataflow engine:
//
//   - nilerr: a call's result value must not be consumed on a path
//     where the accompanying error was never checked.
//
// The value-range analyzers run the interval abstract domain
// (internal/lint/interval) over the same CFG/dataflow engine and prove
// the cycle arithmetic — the quantities Cal_U multiplies and doubles —
// overflow-safe:
//
//   - intoverflow: +, *, << on cycle-typed quantities whose range may
//     exceed int64; the clamp and doubling-guard idioms are recognized
//     and stay silent.
//   - deadrange: branch conditions provably always true or always
//     false — a dead guard is a misremembered invariant.
//   - shiftwidth: shift counts that may reach the operand width or go
//     negative.
//
// Data races and lock misuse are left to go vet and the race detector.
// See docs/LINTING.md for the full rationale and suppression rules.
package lint

import (
	"slices"

	"repro/internal/lint/analysis"
)

// registry is filled by init rather than a composite-literal
// initializer: Directive's Run consults the registry to validate
// directive names, and a static initializer would be a declared
// initialization cycle.
var registry []*analysis.Analyzer

func init() {
	registry = []*analysis.Analyzer{
		Deadrange,
		Detrand,
		Directive,
		Errdrop,
		Floateq,
		Intoverflow,
		Nilerr,
		Shiftwidth,
	}
}

// Analyzers returns the full rtwlint suite in deterministic order.
func Analyzers() []*analysis.Analyzer {
	return slices.Clone(registry)
}
