package core

import (
	"math"
	"testing"

	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// extremePeriodSet builds a line of streams sharing one path: nHogs
// high-priority hogs with the given (possibly enormous) period and a
// low-priority victim with a small period. The victim's HP set then
// contains nHogs elements whose max period drives CalUSearchCap's
// stability margin.
func extremePeriodSet(t *testing.T, nHogs, hogPeriod int) (*stream.Set, stream.ID) {
	t.Helper()
	m := topology.NewMesh2D(10, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	for i := 0; i < nHogs; i++ {
		if _, err := set.Add(r, 0, 9, 10+nHogs-i, hogPeriod, 3, hogPeriod); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := set.Add(r, 0, 9, 1, 2000, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return set, victim.ID
}

// TestCalUSearchCapMarginOverflow is the regression test for the
// stability-margin overflow: the margin used to be computed as
// maxPeriod × (len(elems)+1) with no range check, so HP elements with
// extreme periods overflowed the product into a negative margin and
// u+margin <= h held spuriously. With six hogs of period MaxInt/4 the
// unclamped product exceeds MaxInt; the clamp must pin the margin at
// MaxSearchHorizon and the search must still return the exact bound a
// one-shot computation at a fixed horizon produces.
func TestCalUSearchCapMarginOverflow(t *testing.T) {
	set, victim := extremePeriodSet(t, 6, math.MaxInt/4)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	u, err := a.CalUSearchCap(victim, MaxSearchHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if u <= 0 {
		t.Fatalf("CalUSearchCap under extreme periods = %d, want a positive bound", u)
	}
	// Each hog places its 3 slots once (one window covers any practical
	// horizon), so the bound is 6×3 busy slots plus the victim's
	// latency of 12: 30.
	if u != 30 {
		t.Fatalf("CalUSearchCap = %d, want 30", u)
	}
	want, err := a.CalUHorizon(victim, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if u != want {
		t.Fatalf("CalUSearchCap = %d, one-shot CalUHorizon = %d", u, want)
	}
}

// TestCalUSearchCapMarginClampNearCap exercises the clamp's boundary
// case the ISSUE calls out: periods at the search cap itself (2^21)
// with enough elements that the unclamped product, while representable
// in 64 bits, exceeds MaxSearchHorizon many times over. The search
// must behave exactly like the one-shot path.
func TestCalUSearchCapMarginClampNearCap(t *testing.T) {
	set, victim := extremePeriodSet(t, 8, MaxSearchHorizon)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	u, err := a.CalUSearchCap(victim, MaxSearchHorizon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.CalUHorizon(victim, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if u != want {
		t.Fatalf("CalUSearchCap = %d, one-shot CalUHorizon = %d", u, want)
	}
}

// TestCalcReuseMatchesOneShot: Cal_U's pooled scratch, recycled across
// every stream of a set for three rounds in alternating order, returns
// what a heap-allocated diagram returns and what the first round
// returned: arena reuse must never leak state between calls.
func TestCalcReuseMatchesOneShot(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]int, set.Len())
	for round := 0; round < 3; round++ {
		for k := range set.Streams {
			s := set.Streams[k]
			if round%2 == 1 {
				s = set.Streams[set.Len()-1-k]
			}
			got, err := a.CalUSearchCap(s.ID, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[s.ID] = got
			} else if got != first[s.ID] {
				t.Fatalf("round %d stream %d: CalUSearchCap = %d, round 0 = %d", round, s.ID, got, first[s.ID])
			}
			gotH, err := a.CalUHorizon(s.ID, 500)
			if err != nil {
				t.Fatal(err)
			}
			d, err := a.Diagram(s.ID, 500)
			if err != nil {
				t.Fatal(err)
			}
			if want := d.DelayUpperBound(s.Latency); gotH != want {
				t.Fatalf("round %d stream %d: pooled CalUHorizon = %d, heap diagram = %d", round, s.ID, gotH, want)
			}
		}
	}
}
