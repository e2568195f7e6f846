package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// searchCaps are the caps the horizon-jump search is pinned at: the
// evaluation harnesses' 65536 and the global maximum.
var searchCaps = []int{1 << 16, core.MaxSearchHorizon}

// checkSearchSet pins CalUSearchCap to the doubling oracle at every
// cap, once on the generated periods and once after the accommodation
// rule inflated them. Every stream is checked at 65536; at the maximum
// cap, where an inflated 60-stream set costs the oracle seconds, every
// maxStride-th stream.
func checkSearchSet(t *testing.T, name string, set *stream.Set, a *core.Analyzer, maxStride int) {
	t.Helper()
	for _, phase := range []string{"before inflation", "after inflation"} {
		if phase == "after inflation" {
			if _, err := workload.Inflate(set, a); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for _, s := range set.Streams {
			for _, cap := range searchCaps {
				if cap == core.MaxSearchHorizon && int(s.ID)%maxStride != 0 {
					continue
				}
				got, err := a.CalUSearchCap(s.ID, cap)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := core.CalUSearchDoubling(a, s.ID, cap)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got != want {
					t.Fatalf("%s, %s: stream %d cap %d: CalUSearchCap = %d, doubling search = %d",
						name, phase, s.ID, cap, got, want)
				}
			}
		}
	}
}

// TestSearchJumpMatchesDoublingTopologies: seeded §5-style sets on a
// mesh, a ring and a hypercube.
func TestSearchJumpMatchesDoublingTopologies(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh2D(10, 10), topology.NewRing(16), topology.NewHypercube(5),
	} {
		for _, seed := range []int64{1, 2, 3} {
			cfg := workload.PaperDefaults(min(20, topo.Nodes()), 3, seed)
			cfg.InflatePeriods = false
			set, a, err := workload.GenerateOn(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSearchSet(t, fmt.Sprintf("%s seed %d", topo.Name(), seed), set, a, 1)
		}
	}
}

// TestSearchJumpMatchesDoublingPaperTables: the first trial of each of
// Tables 1-5 at the paper's seed (1000+n). On Table 2 inflation pushes
// the HP periods far enough that the margin sends every search to the
// cap.
func TestSearchJumpMatchesDoublingPaperTables(t *testing.T) {
	tables := []struct{ n, streams, plevels int }{
		{1, 20, 1}, {2, 60, 1}, {3, 20, 4}, {4, 20, 5}, {5, 60, 15},
	}
	for _, tb := range tables {
		cfg := workload.PaperDefaults(tb.streams, tb.plevels, int64(1000+tb.n))
		cfg.InflatePeriods = false
		set, a, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSearchSet(t, fmt.Sprintf("table %d", tb.n), set, a, tb.streams/10)
	}
}
