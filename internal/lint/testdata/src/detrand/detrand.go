// Fixture for the detrand analyzer. The harness loads it under an
// import path inside internal/sim, so the scope rule applies.
package detrand

import (
	"fmt"
	"math/rand"
	"time"
)

func clocks() time.Time {
	t := time.Now()   // want `time.Now is nondeterministic`
	_ = time.Since(t) // want `time.Since is nondeterministic`
	// Durations and constructions off explicit values are fine.
	_ = time.Unix(42, 0)
	return t
}

func draws(seed int64) int {
	n := rand.Intn(10)                 // want `global rand.Intn draws from the process-wide source`
	rand.Shuffle(n, func(i, j int) {}) // want `global rand.Shuffle draws from the process-wide source`

	// The seeded-generator idiom the codebase uses everywhere: fine.
	rng := rand.New(rand.NewSource(seed))
	n += rng.Intn(10)
	return n
}

func mapOrder(m map[int]int) ([]int, int) {
	// Order-dependent: prints in map order.
	for k, v := range m { // want `map iteration order is nondeterministic`
		fmt.Println(k, v)
	}

	// Order-dependent: appends computed records, not bare keys.
	var recs []int
	for k, v := range m { // want `map iteration order is nondeterministic`
		recs = append(recs, k*v)
	}

	// The collect-then-sort idiom: fine.
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}

	// Same idiom with a selector-chain destination: fine.
	var b struct{ keys []int }
	for k := range m {
		b.keys = append(b.keys, k)
	}
	keys = append(keys, b.keys...)

	// Commutative accumulation: fine.
	sum := 0
	for _, v := range m {
		sum += v
	}
	n := 0
	for range m {
		n++
	}

	//rtwlint:ignore detrand output feeds an order-insensitive set union
	for k := range m {
		recs = append(recs, k+n)
	}
	return keys, sum
}

// collector accumulates keys through a helper method. A call in a
// map-range body is order-dependent whatever the callee does.
type collector struct{ keys []int }

// addUnsorted bakes the insertion order into the slice.
func (c *collector) addUnsorted(k int) {
	c.keys = append(c.keys, k)
}

func useCollector(m map[int]int) []int {
	var c collector
	for k := range m { // want `map iteration order is nondeterministic`
		c.addUnsorted(k)
	}
	return c.keys
}
