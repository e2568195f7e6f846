// Package interval implements the value-range abstract domain of
// rtwlint's fourth analyzer tier (see docs/LINTING.md, "tier 4: value
// ranges"). An Interval is a conservative enclosure [Lo, Hi] of the
// values an integer expression can take; the companion Env lattice
// (env.go) runs it through the internal/lint/dataflow fixpoint so the
// intoverflow, deadrange, and shiftwidth analyzers can prove the
// paper's cycle arithmetic — periods, deadlines, horizons, flit counts
// — overflow-safe instead of waiting for a fuzzer to disprove it.
//
// Representation. The rails math.MinInt64 / math.MaxInt64 double as
// "unbounded below" / "unbounded above": an int64 value at the rail is
// indistinguishable from one beyond it, and treating the rail as a
// reachable value keeps every operation sound (the enclosure only ever
// grows). Top is [MinInt64, MaxInt64]; an inverted pair (Lo > Hi) is
// the empty interval — the fact of an infeasible path, which is what
// deadrange reads off a refinement that contradicts itself.
//
// Termination. The domain has (practically) infinite ascending chains,
// so the fixpoint widens: Widen jumps a growing bound outward to the
// next threshold from a small, domain-derived ladder (0, ±1, the
// paper's MaxSearchHorizon, MaxInt64/4, the rails) instead of creeping
// one loop iteration at a time. Narrow recovers precision afterwards by
// letting a widened (rail) bound shrink back to the stable recomputed
// one — the classic widen-then-narrow pairing.
package interval

import (
	"math"
	"strconv"
)

// Rails: interval endpoints at these values mean "unbounded on that
// side"; both rails at once is Top.
const (
	MinV = math.MinInt64
	MaxV = math.MaxInt64
)

// Interval is a closed range of int64 values. The zero value is NOT a
// valid interval (it is the point 0); use Top() for "unknown".
type Interval struct {
	Lo, Hi int64
}

// String renders the interval for diagnostics; rails print as ±inf.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[empty]"
	}
	lo, hi := strconv.FormatInt(iv.Lo, 10), strconv.FormatInt(iv.Hi, 10)
	if iv.Lo == MinV {
		lo = "-inf"
	}
	if iv.Hi == MaxV {
		hi = "+inf"
	}
	return "[" + lo + "," + hi + "]"
}

// Top is the unbounded interval.
func Top() Interval { return Interval{MinV, MaxV} }

// Empty is the canonical empty interval (no value; an infeasible
// path's fact).
func Empty() Interval { return Interval{1, 0} }

// Point is the single-value interval [v, v].
func Point(v int64) Interval { return Interval{v, v} }

// Of is the interval [lo, hi].
func Of(lo, hi int64) Interval { return Interval{lo, hi} }

// IsEmpty reports an inverted (empty) interval.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// IsTop reports the unbounded interval.
func (iv Interval) IsTop() bool { return iv.Lo == MinV && iv.Hi == MaxV }

// IsPoint reports a single-value interval.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// BoundedLo / BoundedHi report whether the respective bound is real
// information rather than a rail.
func (iv Interval) BoundedLo() bool { return iv.Lo != MinV }
func (iv Interval) BoundedHi() bool { return iv.Hi != MaxV }

// Contains reports v ∈ iv.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Union is the smallest interval containing both (empty operands are
// identities).
func Union(a, b Interval) Interval {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	return Interval{min64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
}

// Intersect is the meet; an empty result means the constraints
// contradict (infeasible path).
func Intersect(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	return Interval{max64(a.Lo, b.Lo), min64(a.Hi, b.Hi)}
}

// thresholds is the widening ladder, ascending. The values are the
// boundaries the analyses actually need to respect: 63/64 is the
// shift-width frontier (a loop counter clamped under a container size
// widens to 63, keeping `1 << b` provable), 1<<16 and 1<<20 are the
// iteration and response-horizon caps of the RTA loops, and the rest
// are the original ladder below. Denser rungs cost nothing — widening
// still stabilizes in at most len(thresholds) steps — and keep
// container-bounded quantities from overshooting to 2^21.
//
// The original rationale: the values are the
// constants the paper's arithmetic is actually clamped against:
// MaxSearchHorizon (1<<21, internal/core) caps the doubling-horizon
// search, MaxInt64/4 is the margin-regression territory of PR 2's
// extreme-period tests, and the small values keep sign and
// emptiness/positivity facts (the ones branch refinement produces most)
// from widening away.
var thresholds = []int64{
	MinV, -(math.MaxInt64 / 4), -(1 << 21), -(1 << 16), -1024, -64, -1,
	0, 1, 63, 64, 1023, 1024, (1 << 16) - 1, 1 << 16, 1 << 20, 1 << 21,
	math.MaxInt64 / 4, MaxV,
}

// widenLo returns the largest threshold ≤ v.
func widenLo(v int64) int64 {
	lo := int64(MinV)
	for _, t := range thresholds {
		if t <= v && t > lo {
			lo = t
		}
	}
	return lo
}

// widenHi returns the smallest threshold ≥ v.
func widenHi(v int64) int64 {
	hi := int64(MaxV)
	for _, t := range thresholds {
		if t >= v && t < hi {
			hi = t
		}
	}
	return hi
}

// Widen accelerates prev ⟶ next: a bound that grew since prev jumps to
// the next threshold beyond next's bound; a stable bound keeps its
// exact value. Widen(prev, next) always contains next, and repeated
// widening stabilizes after at most len(thresholds) steps per bound —
// the finite-height guarantee the dataflow fixpoint needs.
func Widen(prev, next Interval) Interval {
	if prev.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return prev
	}
	out := Interval{prev.Lo, prev.Hi}
	if next.Lo < prev.Lo {
		out.Lo = widenLo(next.Lo)
	}
	if next.Hi > prev.Hi {
		out.Hi = widenHi(next.Hi)
	}
	return out
}

// Narrow refines a widened interval with a freshly recomputed one:
// only bounds the widening pushed to a rail may move (to the
// recomputed bound); real bounds stay. This is the standard narrowing
// — it can only shrink toward the recomputed value, so alternating
// widen/narrow still terminates.
func Narrow(widened, recomputed Interval) Interval {
	if widened.IsEmpty() || recomputed.IsEmpty() {
		return widened
	}
	out := widened
	if out.Lo == MinV && recomputed.Lo > MinV {
		out.Lo = recomputed.Lo
	}
	if out.Hi == MaxV && recomputed.Hi < MaxV {
		out.Hi = recomputed.Hi
	}
	return out
}

// --- checked scalar helpers -------------------------------------------------

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// addCheck returns a+b and whether it stayed in int64 range.
func addCheck(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return s, false
	}
	return s, true
}

// mulCheck returns a*b and whether it stayed in int64 range.
func mulCheck(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if a == -1 && b == MinV || b == -1 && a == MinV {
		return p, false
	}
	if p/b != a {
		return p, false
	}
	return p, true
}

// shlCheck returns a<<k and whether it stayed in int64 range (k must
// be in [0,63]).
func shlCheck(a int64, k uint) (int64, bool) {
	s := a << k
	if s>>k != a {
		return s, false
	}
	return s, true
}

// --- interval arithmetic ----------------------------------------------------

// Add returns the sum enclosure and whether some pair of values could
// overflow int64. Rails count as reachable values, so Top+[1,1]
// reports possible overflow — callers decide how much evidence they
// require (see intoverflow in package lint). Once overflow is
// possible the Go value wraps to an arbitrary residue, so the
// enclosure collapses to Top — a saturated bound would let a later
// proof (a deadrange verdict, say) rest on a value the hardware never
// produces.
func Add(a, b Interval) (Interval, bool) {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty(), false
	}
	lo, okLo := addCheck(a.Lo, b.Lo)
	hi, okHi := addCheck(a.Hi, b.Hi)
	if !okLo || !okHi {
		return Top(), true
	}
	return Interval{lo, hi}, false
}

// Sub returns the difference enclosure and possible-overflow.
func Sub(a, b Interval) (Interval, bool) {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty(), false
	}
	// a - b = a + (-b); negate b's bounds with care for MinV.
	nb := Interval{negSat(b.Hi), negSat(b.Lo)}
	// x − MinV overflows for any x ≥ 0 (−MinV = MaxV+1): negSat hid
	// that, so re-report it when both sides are reachable.
	if b.Lo == MinV && a.Hi >= 0 {
		return Top(), true
	}
	return Add(a, nb)
}

func negSat(v int64) int64 {
	if v == MinV {
		return MaxV
	}
	return -v
}

// Mul returns the product enclosure and possible-overflow.
func Mul(a, b Interval) (Interval, bool) {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty(), false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulCheck(x, y)
			if !ok {
				return Top(), true
			}
			lo = min64(lo, p)
			hi = max64(hi, p)
		}
	}
	return Interval{lo, hi}, false
}

// AddFiniteOverflow reports whether a+b can exceed the int64 range at
// endpoints that are both real bounds (not rails). This is the
// evidence intoverflow demands before flagging an addition: when
// either operand is already unbounded the domain has no proof in
// either direction, and flagging every such sum would drown the
// report in noise (unlike `*`/`<<`, where a tainted unbounded operand
// is itself the finding).
func AddFiniteOverflow(a, b Interval) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if a.Hi != MaxV && b.Hi != MaxV {
		if _, ok := addCheck(a.Hi, b.Hi); !ok {
			return true
		}
	}
	if a.Lo != MinV && b.Lo != MinV {
		if _, ok := addCheck(a.Lo, b.Lo); !ok {
			return true
		}
	}
	return false
}

// Div returns the quotient enclosure for Go's truncated division. A
// divisor interval containing zero yields Top (the operation may
// panic; panic-freedom is not this domain's question). MinV / -1 is
// the one overflowing quotient.
func Div(a, b Interval) (Interval, bool) {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty(), false
	}
	if b.Contains(0) {
		return Top(), false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			if x == MinV && y == -1 {
				return Top(), true
			}
			lo = min64(lo, x/y)
			hi = max64(hi, x/y)
		}
	}
	// With 0 excluded the divisor keeps one sign, so x/y is monotone in
	// each argument separately and the endpoint scan above is exact.
	return Interval{lo, hi}, false
}

// Rem returns the remainder enclosure for Go's truncated remainder:
// result sign follows the dividend, |result| < |divisor|. A divisor
// containing zero yields Top.
func Rem(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if b.Contains(0) {
		return Top()
	}
	// |r| ≤ maxAbs(b)-1, sign follows a.
	m := max64(absSat(b.Lo), absSat(b.Hi)) - 1
	lo, hi := -m, m
	if a.Lo >= 0 {
		lo = 0
	}
	if a.Hi <= 0 {
		hi = 0
	}
	// The remainder can't exceed the dividend's own magnitude range.
	return Intersect(Interval{lo, hi}, Interval{min64(a.Lo, 0), max64(a.Hi, 0)})
}

func absSat(v int64) int64 {
	if v == MinV {
		return MaxV
	}
	if v < 0 {
		return -v
	}
	return v
}

// Neg returns the negation enclosure and possible-overflow (−MinV).
func Neg(a Interval) (Interval, bool) {
	if a.IsEmpty() {
		return Empty(), false
	}
	if a.Lo == MinV {
		return Top(), true
	}
	return Interval{-a.Hi, -a.Lo}, false
}

// Shl returns the enclosure of a << k and possible-overflow. k is the
// shift-count interval; counts ≥ 64 or < 0 are reported as overflow
// (shiftwidth reports them as their own finding class). Only the
// in-range portion of k contributes to the enclosure.
func Shl(a, k Interval) (Interval, bool) {
	if a.IsEmpty() || k.IsEmpty() {
		return Empty(), false
	}
	over := k.Lo < 0 || k.Hi > 63
	kk := Intersect(k, Interval{0, 63})
	if kk.IsEmpty() {
		return Top(), over
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, c := range [2]int64{kk.Lo, kk.Hi} {
			s, ok := shlCheck(x, uint(c))
			if !ok {
				return Top(), true
			}
			lo = min64(lo, s)
			hi = max64(hi, s)
		}
	}
	if over {
		return Top(), true
	}
	return Interval{lo, hi}, false
}

// Shr returns the enclosure of a >> k (arithmetic shift). Counts
// outside [0,63] contribute the sign-saturated values.
func Shr(a, k Interval) Interval {
	if a.IsEmpty() || k.IsEmpty() {
		return Empty()
	}
	kk := Intersect(k, Interval{0, 63})
	if kk.IsEmpty() {
		kk = Interval{63, 63} // all-ones or zero; covered by the endpoint scan
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, c := range [2]int64{kk.Lo, kk.Hi} {
			s := x >> uint(c)
			lo = min64(lo, s)
			hi = max64(hi, s)
		}
	}
	return Interval{lo, hi}
}

// TypeRange returns the value range of a signed integer type of the
// given bit width (8, 16, 32, 64). Widths outside that set yield Top.
func TypeRange(bits int) Interval {
	switch bits {
	case 8:
		return Interval{math.MinInt8, math.MaxInt8}
	case 16:
		return Interval{math.MinInt16, math.MaxInt16}
	case 32:
		return Interval{math.MinInt32, math.MaxInt32}
	case 64:
		return Top()
	}
	return Top()
}
