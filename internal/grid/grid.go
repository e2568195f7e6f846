// Package grid provides the shared sweep-grid machinery behind the
// parameter studies: deterministic enumeration of the cartesian
// product of named axes, per-point seed derivation, the axis-value
// validation the sweeps would otherwise open-code, and the ordered
// worker pool (Map) every study fans its trials, replications and
// points across.
//
// Both the ratio-table sweeps (package exp) and the design-space
// explorer (package explore) iterate the same way — a fixed list of
// axis values, visited in a fixed lexicographic order, with any
// randomness derived from a per-point seed rather than from visit
// order — so the two cannot drift: a grid's point order, and therefore
// every merged result, is a pure function of the axes.
package grid

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Axis is one dimension of a sweep grid: a name (for diagnostics) and
// the number of values on the axis. The values themselves stay typed
// in the caller; the grid deals only in indexes.
type Axis struct {
	Name string
	Len  int
}

// Grid enumerates the cartesian product of its axes in lexicographic
// order with the LAST axis varying fastest, matching the nested-loop
// order `for a { for b { ... } }` the sweeps historically used.
type Grid struct {
	axes    []Axis
	strides []int
	size    int
}

// New builds a grid over the given axes. Every axis must have a
// positive length and a non-empty name; axis names must be unique.
func New(axes ...Axis) (*Grid, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("grid: no axes")
	}
	seen := make(map[string]bool, len(axes))
	size := 1
	for _, a := range axes {
		if a.Name == "" {
			return nil, fmt.Errorf("grid: axis with empty name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("grid: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if a.Len < 1 {
			return nil, fmt.Errorf("grid: axis %q has no values", a.Name)
		}
		if size > 1<<30/a.Len {
			return nil, fmt.Errorf("grid: more than %d points", 1<<30)
		}
		size *= a.Len
	}
	g := &Grid{axes: append([]Axis(nil), axes...), size: size}
	g.strides = make([]int, len(axes))
	stride := 1
	for i := len(axes) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= axes[i].Len
	}
	return g, nil
}

// Size returns the number of points in the grid.
func (g *Grid) Size() int { return g.size }

// ForEach visits every point in index order, stopping at the first
// error. The coords slice is reused between calls; callers that retain
// it must copy.
func (g *Grid) ForEach(fn func(i int, coords []int) error) error {
	coords := make([]int, len(g.axes))
	for i := 0; i < g.size; i++ {
		for a := range g.axes {
			coords[a] = i / g.strides[a] % g.axes[a].Len
		}
		if err := fn(i, coords); err != nil {
			return err
		}
	}
	return nil
}

// Map calls f(i) for every i in [0, n) from a pool of workers and
// returns each call's result and error at index i. workers <= 0 means
// GOMAXPROCS, and the pool never exceeds n. Every index runs whatever
// the others return, so when f(i) depends on i alone the outcome is the
// same for every worker count and schedule; the caller decides which
// errors matter.
func Map[T any](n, workers int, f func(i int) (T, error)) ([]T, []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each call writes only its own index; wg.Wait orders the
			// caller's reads after every write.
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				results[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// PointSeed derives a deterministic per-point seed from a base seed
// and a point index. The mix is a fixed splitmix64 step, so the seed
// of point i depends only on (base, i) — never on visit order or
// worker count — and nearby indexes get well-separated seeds.
func PointSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// PositiveInts validates that every value of the named axis is
// positive, returning the error the sweeps historically formatted by
// hand.
func PositiveInts(name string, vals []int) error {
	if len(vals) == 0 {
		return fmt.Errorf("grid: no %s values", name)
	}
	for _, v := range vals {
		if v < 1 {
			return fmt.Errorf("grid: %s %d must be positive", name, v)
		}
	}
	return nil
}

// PositiveFloats is PositiveInts for float-valued axes.
func PositiveFloats(name string, vals []float64) error {
	if len(vals) == 0 {
		return fmt.Errorf("grid: no %s values", name)
	}
	for _, v := range vals {
		if v <= 0 {
			return fmt.Errorf("grid: %s %f must be positive", name, v)
		}
	}
	return nil
}

// NonNegativeInts validates axis values that may legitimately be zero
// (router pipeline depths, jitter bounds).
func NonNegativeInts(name string, vals []int) error {
	if len(vals) == 0 {
		return fmt.Errorf("grid: no %s values", name)
	}
	for _, v := range vals {
		if v < 0 {
			return fmt.Errorf("grid: negative %s %d", name, v)
		}
	}
	return nil
}
