package grid

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestEnumerationOrderMatchesNestedLoops(t *testing.T) {
	g, err := New(Axis{"a", 2}, Axis{"b", 3}, Axis{"c", 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 12 {
		t.Fatalf("Size() = %d, want 12", g.Size())
	}
	var want [][3]int
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				want = append(want, [3]int{a, b, c})
			}
		}
	}
	i := 0
	err = g.ForEach(func(idx int, coords []int) error {
		if idx != i {
			t.Fatalf("visit %d reported index %d", i, idx)
		}
		if [3]int{coords[0], coords[1], coords[2]} != want[i] {
			t.Fatalf("point %d = %v, want %v", i, coords, want[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 12 {
		t.Fatalf("visited %d points", i)
	}
}

func TestNewRejectsBadAxes(t *testing.T) {
	cases := [][]Axis{
		nil,
		{{"", 2}},
		{{"a", 0}},
		{{"a", 2}, {"a", 3}},
	}
	for i, axes := range cases {
		if _, err := New(axes...); err == nil {
			t.Fatalf("case %d: New(%v) accepted", i, axes)
		}
	}
}

func TestPointSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := PointSeed(42, i)
		if s != PointSeed(42, i) {
			t.Fatalf("PointSeed(42, %d) not deterministic", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("PointSeed collision between points %d and %d", i, j)
		}
		seen[s] = i
	}
	if PointSeed(1, 0) == PointSeed(2, 0) {
		t.Fatal("different bases produced the same seed")
	}
}

func TestValidators(t *testing.T) {
	if err := PositiveInts("vc count", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := PositiveInts("vc count", []int{1, 0}); err == nil {
		t.Fatal("PositiveInts accepted 0")
	}
	if err := PositiveInts("vc count", nil); err == nil {
		t.Fatal("PositiveInts accepted empty")
	}
	if err := PositiveFloats("scale", []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if err := PositiveFloats("scale", []float64{-1}); err == nil {
		t.Fatal("PositiveFloats accepted -1")
	}
	if err := NonNegativeInts("depth", []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if err := NonNegativeInts("depth", []int{-1}); err == nil {
		t.Fatal("NonNegativeInts accepted -1")
	}
}

// TestMap: every index's result and error land at that index for any
// worker count, and a failing index leaves every other result
// computed.
func TestMap(t *testing.T) {
	for _, n := range []int{0, 1, 17} {
		for _, workers := range []int{0, 1, 2, 8} {
			var calls atomic.Int64
			results, errs := Map(n, workers, func(i int) (int, error) {
				calls.Add(1)
				if i%5 == 3 {
					return -1, fmt.Errorf("index %d", i)
				}
				return i * i, nil
			})
			if len(results) != n || len(errs) != n {
				t.Fatalf("n %d workers %d: %d results, %d errors", n, workers, len(results), len(errs))
			}
			if got := calls.Load(); got != int64(n) {
				t.Fatalf("n %d workers %d: f called %d times", n, workers, got)
			}
			for i := 0; i < n; i++ {
				if i%5 == 3 {
					if errs[i] == nil || errs[i].Error() != fmt.Sprintf("index %d", i) || results[i] != -1 {
						t.Fatalf("n %d workers %d: index %d got (%d, %v), want its own error", n, workers, i, results[i], errs[i])
					}
					continue
				}
				if errs[i] != nil || results[i] != i*i {
					t.Fatalf("n %d workers %d: index %d got (%d, %v), want (%d, nil)", n, workers, i, results[i], errs[i], i*i)
				}
			}
		}
	}
}
