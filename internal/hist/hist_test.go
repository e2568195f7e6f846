package hist

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var h H
	if h.Count() != 0 || h.Quantile(0.5) != -1 || !math.IsNaN(h.Mean()) {
		t.Fatalf("empty histogram misbehaves: %s", h.String())
	}
	if h.String() != "hist{empty}" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestBasicStats(t *testing.T) {
	var h H
	for _, v := range []int{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("stats: %s", h.String())
	}
	if got := h.Mean(); math.Abs(got-22) > 1e-9 {
		t.Fatalf("mean = %f", got)
	}
}

func TestNegativeClamped(t *testing.T) {
	var h H
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative not clamped")
	}
}

// TestQuantileUpperBound: the quantile estimate is always >= the exact
// quantile and <= max (power-of-two bucket guarantee).
func TestQuantileUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seedRaw uint16, nRaw uint8) bool {
		n := 1 + int(nRaw)
		var h H
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(5000)
			h.Observe(vals[i])
		}
		sort.Ints(vals)
		_ = seedRaw
		for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
			exact := vals[int(math.Ceil(q*float64(n)))-1]
			est := h.Quantile(q)
			if est < exact || est > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileRangeChecks(t *testing.T) {
	var h H
	h.Observe(10)
	if h.Quantile(0) != -1 || h.Quantile(1.5) != -1 {
		t.Fatal("out-of-range q accepted")
	}
	if h.Quantile(1.0) != 10 {
		t.Fatalf("q=1 should be max: %d", h.Quantile(1.0))
	}
}

func TestMerge(t *testing.T) {
	var a, b H
	for i := 0; i < 50; i++ {
		a.Observe(i)
	}
	for i := 50; i < 100; i++ {
		b.Observe(i)
	}
	a.Merge(&b)
	if a.Count() != 100 || a.Min() != 0 || a.Max() != 99 {
		t.Fatalf("merged: %s", a.String())
	}
	if math.Abs(a.Mean()-49.5) > 1e-9 {
		t.Fatalf("merged mean %f", a.Mean())
	}
	var empty H
	a.Merge(&empty) // no-op
	if a.Count() != 100 {
		t.Fatal("merging empty changed count")
	}
	empty.Merge(&a)
	if empty.Count() != 100 || empty.Min() != 0 {
		t.Fatal("merging into empty wrong")
	}
}

func TestStringFormat(t *testing.T) {
	var h H
	for i := 1; i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.String()
	for _, want := range []string{"n=1000", "min=1", "max=1000", "p50", "p99"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestHugeValues(t *testing.T) {
	var h H
	h.Observe(1 << 40) // beyond bucket range: capped bucket, stats exact
	if h.Max() != 1<<40 {
		t.Fatal("max lost")
	}
	if q := h.Quantile(0.5); q != 1<<40 {
		t.Fatalf("quantile clamps to max: %d", q)
	}
}
