package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
)

// digest hashes each stream's (src, dst, priority, period, length) in
// ID order.
func digest(set *stream.Set) string {
	h := sha256.New()
	for _, s := range set.Streams {
		fmt.Fprintf(h, "%d %d %d %d %d\n", s.Src, s.Dst, s.Priority, s.Period, s.Length)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestGeneratedSetsGolden pins every generator's draws by digest.
// Comparing the generators with each other cannot catch a change to
// the loop they share; these digests can. torus2d-4x4 and hypercube-4
// both have 16 nodes, and the draws do not depend on the routes, so
// their digests agree.
func TestGeneratedSetsGolden(t *testing.T) {
	type gen func(seed int64) (*stream.Set, *core.Analyzer, error)
	mesh := func(seed int64) Config {
		cfg := PaperDefaults(20, 4, seed)
		cfg.InflatePeriods = false
		return cfg
	}
	on := func(name string) gen {
		topo, err := topology.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		return func(seed int64) (*stream.Set, *core.Analyzer, error) {
			cfg := PaperDefaults(12, 4, seed)
			cfg.InflatePeriods = false
			return GenerateOn(topo, cfg)
		}
	}
	pattern := func(p Pattern) gen {
		return func(seed int64) (*stream.Set, *core.Analyzer, error) { return GeneratePattern(mesh(seed), p) }
	}
	cases := []struct {
		name string
		gen  gen
		want [2]string // seeds 1 and 2
	}{
		{"Generate", func(seed int64) (*stream.Set, *core.Analyzer, error) { return Generate(mesh(seed)) }, [2]string{"bad0e70e2b4d01dc", "e38cf4f94251b4cf"}},
		{"uniform", pattern(Uniform), [2]string{"bad0e70e2b4d01dc", "e38cf4f94251b4cf"}},
		{"transpose", pattern(Transpose), [2]string{"de3b434f305474a9", "2d08a35e19be2a17"}},
		{"bit-reversal", pattern(BitReversal), [2]string{"f615fc6fa4828406", "9e39f6e6671d3634"}},
		{"hotspot", pattern(Hotspot), [2]string{"a7e9c19c23d2bec7", "446cdb70385a1231"}},
		{"nearest-neighbor", pattern(NearestNeighbor), [2]string{"5358518916efb5e2", "15bd195d8eff8848"}},
		{"torus2d-4x4", on("torus2d-4x4"), [2]string{"8a39697b8ffc4668", "6eaa8da6ff439338"}},
		{"hypercube-4", on("hypercube-4"), [2]string{"8a39697b8ffc4668", "6eaa8da6ff439338"}},
		{"ring-12", on("ring-12"), [2]string{"5477f0615b838f7a", "06071d2661a916f3"}},
	}
	for _, c := range cases {
		for i, seed := range []int64{1, 2} {
			set, _, err := c.gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if got := digest(set); got != c.want[i] {
				t.Errorf("%s seed %d: digest %s, want %s", c.name, seed, got, c.want[i])
			}
		}
	}
}
