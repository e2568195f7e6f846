// Package lint hosts the rtwlint analyzers: domain-specific correctness
// checks for this wormhole-switching analysis codebase. Each analyzer
// guards an invariant the paper's algorithm (HP sets → BDG → timing
// diagrams → Cal_U) or its evaluation harness depends on:
//
//   - unsyncshared: goroutine fan-out must not write captured shared
//     state without a mutex, a channel, or an explicit disjoint-index
//     justification (the contract internal/core/parallel.go relies on).
//   - floateq: timing quantities must never be compared with == / != in
//     floating point; bounds are integer flit times, statistics need an
//     epsilon.
//   - detrand: the simulator and experiment harnesses must be
//     reproducible — no wall clock, no unseeded global randomness, no
//     map-iteration-order-dependent output.
//   - errdrop: error returns from this module's own functions must not
//     be silently discarded (stricter than go vet, scoped to repro/...).
//   - directive: every //rtwlint:ignore suppression must name a known
//     analyzer, carry a justification, and actually suppress something.
//
// The flow-sensitive analyzers run on the internal/lint/cfg +
// internal/lint/dataflow engine and guard the concurrent runtime the
// admission daemon grew around the feasibility core:
//
//   - nilerr: a call's result value must not be consumed on a path
//     where the accompanying error was never checked.
//
// The interprocedural analyzers add the module call graph and the
// function summaries of internal/lint/summary:
//
//   - lockorder: no double-locking of a sync.Mutex/RWMutex instance, no
//     ABBA acquisition-order inversions between lock classes (direct or
//     through call chains), no return with a lock still held on some
//     paths but released on others.
//   - atomicmix: a variable accessed through sync/atomic anywhere in
//     the module must not be read or written plainly elsewhere.
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
		Atomicmix,
		Deadrange,
		Detrand,
		Directive,
		Errdrop,
		Floateq,
		Intoverflow,
		Lockorder,
		Nilerr,
		Shiftwidth,
		Unsyncshared,
	}
}

// Analyzers returns the full rtwlint suite in deterministic order.
func Analyzers() []*analysis.Analyzer {
	return slices.Clone(registry)
}
