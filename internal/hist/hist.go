// Package hist provides a compact latency histogram with power-of-two
// buckets: constant memory, O(1) observation, and quantile estimates
// good to a factor of two at the tail — sufficient for p50/p95/p99
// reporting across millions of simulated message deliveries.
package hist

import (
	"fmt"
	"math"
	"math/bits"
)

// Buckets is the number of power-of-two buckets; bucket i counts values
// in [2^(i-1), 2^i) except bucket 0, which counts 0 and 1... precisely:
// value v lands in bucket bits.Len(uint(v)) (capped), so bucket 0 holds
// v == 0, bucket 1 holds v == 1, bucket 2 holds 2..3, bucket 3 holds
// 4..7, and so on.
const Buckets = 32

// H is a power-of-two latency histogram. The zero value is ready to
// use.
type H struct {
	counts [Buckets]int64
	total  int64
	sum    int64
	min    int
	max    int
}

// Observe records a non-negative value; negative values are clamped to
// zero.
func (h *H) Observe(v int) {
	if v < 0 {
		v = 0
	}
	b := bits.Len(uint(v))
	if b >= Buckets {
		b = Buckets - 1
	}
	h.counts[b]++
	h.total++
	h.sum += int64(v)
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *H) Count() int64 { return h.total }

// Min returns the smallest observation (0 when empty).
func (h *H) Min() int { return h.min }

// Max returns the largest observation (0 when empty).
func (h *H) Max() int { return h.max }

// Mean returns the average observation, or NaN when empty.
func (h *H) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an upper estimate of the q-quantile (0 < q <= 1):
// the upper edge of the bucket containing it, clamped to the observed
// maximum. It returns -1 when the histogram is empty or q is out of
// range.
func (h *H) Quantile(q float64) int {
	if h.total == 0 || q <= 0 || q > 1 {
		return -1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	var seen int64
	for b := 0; b < Buckets; b++ {
		seen += h.counts[b]
		if seen >= rank {
			upper := bucketUpper(b)
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// bucketUpper returns the largest value mapping to bucket b.
func bucketUpper(b int) int {
	if b == 0 {
		return 0
	}
	if b >= 31 {
		return math.MaxInt32
	}
	return 1<<b - 1
}

// Merge adds other's observations into h.
func (h *H) Merge(other *H) {
	if other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for b := range h.counts {
		h.counts[b] += other.counts[b]
	}
	h.total += other.total
	h.sum += other.sum
}

// String summarises the distribution.
func (h *H) String() string {
	if h.total == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d min=%d mean=%.1f p50≤%d p95≤%d p99≤%d max=%d}",
		h.total, h.min, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.max)
}
