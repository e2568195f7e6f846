package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stream"
)

// Cal_U stops at the bound (calUBounded): at a horizon h below the
// deadline D, Modify certifies a frontier F, and a bound u with
// 0 ≤ u ≤ F is returned without laying the diagram out to D. These
// tests pin that early exit to the full-horizon computation, and pin
// the two cases that rule out any closed-form stability margin.

// earlyExitCaseA: after Modify, Cal_U (L = 3) keeps alternating
// between 79 and 56 as the horizon grows. Row 8's releases near the
// end of the horizon decide whether the rows below row 8 are re-laid
// out, and that moves slots far below the horizon.
func earlyExitCaseA() []Element {
	return []Element{
		{ID: 1, Priority: 2, Period: 27, Length: 12, Mode: Indirect, Via: []stream.ID{14}},
		{ID: 2, Priority: 1, Period: 8, Length: 2, Mode: Direct},
		{ID: 8, Priority: 3, Period: 42, Length: 6, Mode: Indirect, Via: []stream.ID{14}},
		{ID: 14, Priority: 2, Period: 14, Length: 5, Mode: Indirect, Via: []stream.ID{2}},
	}
}

// earlyExitCaseB: at horizon 828 Cal_U (L = 12) is 347, which the
// doubling search's stability margin accepts (347 + 39·5 ≤ 828), yet
// every horizon from 1054 on gives 450.
func earlyExitCaseB() []Element {
	return []Element{
		{ID: 2, Priority: 3, Period: 38, Length: 13, Mode: Indirect, Via: []stream.ID{11}},
		{ID: 3, Priority: 4, Period: 39, Length: 8, Mode: Indirect, Via: []stream.ID{11}},
		{ID: 5, Priority: 4, Period: 25, Length: 8, Mode: Direct},
		{ID: 11, Priority: 3, Period: 12, Length: 4, Mode: Direct},
	}
}

// modifiedAt lays elems out at the horizon and applies Modify.
func modifiedAt(t testing.TB, elems []Element, horizon int) *Diagram {
	t.Helper()
	d, err := NewDiagram(elems, horizon)
	if err != nil {
		t.Fatal(err)
	}
	d.Modify()
	return d
}

// checkEarlyExit is the early-exit oracle on one input. The horizon-h
// diagram, modified with the frontier bookkeeping, must agree with the
// horizon-D diagram below the frontier F it certifies — every row's
// alloc and req set and the result row — so a bound it certifies
// (0 ≤ u ≤ F) is the full-horizon bound. calUBounded, the production
// entry point, must return the full-horizon bound whatever happens.
func checkEarlyExit(t testing.TB, elems []Element, required, h, deadline int) {
	t.Helper()
	full := modifiedAt(t, elems, deadline)
	want := full.DelayUpperBound(required)
	short, err := NewDiagram(elems, h)
	if err != nil {
		t.Fatal(err)
	}
	f := short.modify(true)
	if f < 0 || f > h {
		t.Fatalf("elements %v: frontier %d outside [0, %d]", elems, f, h)
	}
	for c := 0; c < f; c++ {
		if short.occ.get(c) != full.occ.get(c) {
			t.Fatalf("elements %v, h %d, D %d: result rows differ at slot %d below frontier %d", elems, h, deadline, c, f)
		}
		for r := range short.Elements {
			if short.alloc[r].get(c) != full.alloc[r].get(c) || short.req[r].get(c) != full.req[r].get(c) {
				t.Fatalf("elements %v, h %d, D %d: row %d differs at slot %d below frontier %d",
					elems, h, deadline, short.Elements[r].ID, c, f)
			}
		}
	}
	if u := short.DelayUpperBound(required); u >= 0 && u <= f && u != want {
		t.Fatalf("elements %v, L %d: horizon %d certifies U = %d, horizon %d gives %d", elems, required, h, u, deadline, want)
	}
	var ar Arena
	got, err := calUBounded(slices.Clone(elems), required, deadline, &ar)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("elements %v, L %d, D %d: calUBounded = %d, full horizon = %d", elems, required, deadline, got, want)
	}
}

// TestCalUOscillatesWithHorizon pins case A: no margin on u can tell
// when a modified diagram's bound has settled. Cal_U is 79 on horizons
// [337, 343), 56 on [343, 379) and 79 on [379, 392). Up to horizon 8192
// it never settles: it takes only those two values, every 42
// consecutive horizons hold both, and the pattern repeats every 1512
// slots (the hyperperiod). Horizons 342 and 513 first differ at slot 27
// of the result row, far below either horizon.
func TestCalUOscillatesWithHorizon(t *testing.T) {
	elems := earlyExitCaseA()
	const required = 3
	us := make([]int, 8193)
	for h := 337; h < len(us); h++ {
		us[h] = modifiedAt(t, elems, h).DelayUpperBound(required)
	}
	for h := 337; h < 392; h++ {
		want := 79
		if h >= 343 && h < 379 {
			want = 56
		}
		if us[h] != want {
			t.Fatalf("horizon %d: U = %d, want %d", h, us[h], want)
		}
	}
	last := map[int]int{}
	for h := 337; h < len(us); h++ {
		if us[h] != 56 && us[h] != 79 {
			t.Fatalf("horizon %d: U = %d, want 56 or 79", h, us[h])
		}
		last[us[h]] = h
		if h >= 337+41 && (last[56] <= h-42 || last[79] <= h-42) {
			t.Fatalf("horizons (%d, %d] hold only U = %d", h-42, h, us[h])
		}
		if h >= 337+1512 && us[h] != us[h-1512] {
			t.Fatalf("horizon %d: U = %d, horizon %d gives %d", h, us[h], h-1512, us[h-1512])
		}
	}
	a, b := modifiedAt(t, elems, 342).ResultRow(), modifiedAt(t, elems, 513).ResultRow()
	first := -1
	for c := range a {
		if a[c] != b[c] {
			first = c
			break
		}
	}
	if first != 27 {
		t.Fatalf("horizons 342 and 513 first differ at slot %d, want 27", first)
	}
	checkEarlyExit(t, elems, required, 342, 513)
}

// TestCalUMarginRuleUnsound pins case B: the doubling search's margin
// rule would accept U = 347 at horizon 828, but every horizon from 1054
// to 8192 gives 450. The frontier does not certify 347, and the early
// exit returns the full-horizon bound.
func TestCalUMarginRuleUnsound(t *testing.T) {
	elems := earlyExitCaseB()
	const required = 12
	short := modifiedAt(t, elems, 828)
	u := short.DelayUpperBound(required)
	if margin := 39 * (len(elems) + 1); u != 347 || u+margin > 828 {
		t.Fatalf("horizon 828: U = %d, margin rule accepts it: %v", u, u+margin <= 828)
	}
	for h := 1054; h <= 8192; h++ {
		if u := modifiedAt(t, elems, h).DelayUpperBound(required); u != 450 {
			t.Fatalf("horizon %d: U = %d, want 450", h, u)
		}
	}
	d, err := NewDiagram(elems, 828)
	if err != nil {
		t.Fatal(err)
	}
	if f := d.modify(true); f >= 347 {
		t.Fatalf("horizon 828 certifies frontier %d, accepting the wrong bound 347", f)
	}
	for _, h := range []int{64, 828, 1053} {
		checkEarlyExit(t, elems, required, h, 1054)
		checkEarlyExit(t, elems, required, h, 8192)
	}
}

// TestCalUFrontierRescanStopsShort pins rule 5 of the certificate
// (Diagram.rescanFrontier). At horizon 1191 a row's releases empty the
// rest of a window, so re-scanning it stops after its last claim before
// the first release and drops the slots it waited in up to there.
// Taking the first release itself as that row's frontier would certify
// slot 36, where row 1's req set differs from the horizon-2483 diagram.
func TestCalUFrontierRescanStopsShort(t *testing.T) {
	elems := []Element{
		{ID: 0, Priority: 4, Period: 10, Length: 2, Mode: Indirect, Via: []stream.ID{0, 4}},
		{ID: 1, Priority: 1, Period: 18, Length: 2, Mode: Indirect, Via: []stream.ID{4, 3}},
		{ID: 2, Priority: 1, Period: 40, Length: 18, Mode: Indirect, Via: []stream.ID{1, 2}},
		{ID: 3, Priority: 2, Period: 62, Length: 27, Mode: Indirect, Via: []stream.ID{1, 2}},
		{ID: 4, Priority: 4, Period: 6, Length: 1, Mode: Indirect, Via: []stream.ID{1, 2}},
	}
	checkEarlyExit(t, elems, 5, 1191, 2483)
}

// randEarlyExitElems draws an HP element list for the early-exit
// battery: up to 9 rows, priority ties, periods 2–83, and indirect rows
// whose vias point anywhere in the list, themselves included.
func randEarlyExitElems(rng *rand.Rand) []Element {
	n := 1 + rng.Intn(9)
	levels := 1 + rng.Intn(5)
	elems := make([]Element, n)
	for i := range elems {
		period := 2 + rng.Intn(82)
		elems[i] = Element{
			ID:       stream.ID(i),
			Priority: 1 + rng.Intn(levels),
			Period:   period,
			Length:   1 + rng.Intn(max(1, period/(1+rng.Intn(4)))),
		}
		if rng.Intn(3) != 0 {
			elems[i].Mode = Indirect
			for v := 0; v < 1+rng.Intn(2); v++ {
				elems[i].Via = append(elems[i].Via, stream.ID(rng.Intn(n)))
			}
		}
	}
	return elems
}

// TestCalUEarlyExitRandomBattery runs checkEarlyExit over 10,000
// seeded random element lists, latencies, deadlines up to 3000 and
// starting horizons below them (about a second).
func TestCalUEarlyExitRandomBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 10000; i++ {
		elems := randEarlyExitElems(rng)
		deadline := 2 + rng.Intn(2999)
		h := 1 + rng.Intn(deadline-1)
		checkEarlyExit(t, elems, 1+rng.Intn(128), h, deadline)
	}
}
