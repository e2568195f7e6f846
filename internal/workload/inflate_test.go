package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
)

// inflateFullPasses is the accommodation rule as it ran before Inflate
// became incremental: every pass, up to maxPasses, recomputes every
// stream's bound and rebuilds the analyzer. It is the oracle inflate is
// pinned to, and returns the number of passes that changed some period.
func inflateFullPasses(set *stream.Set, a *core.Analyzer, ucap, maxPasses int) (int, error) {
	var err error
	changedPasses := 0
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		calc := a.NewCalc()
		for _, s := range set.Streams {
			u, err := calc.CalUSearchCap(s.ID, ucap)
			if err != nil {
				return 0, err
			}
			if u > s.Period {
				s.Period = u
				s.Deadline = u
				changed = true
			} else if u < 0 {
				p := s.Period
				if p < 1 {
					p = 1
				}
				if p > core.MaxSearchHorizon/4 {
					p = core.MaxSearchHorizon / 4
				}
				s.Period = p * 4
				s.Deadline = s.Period
				changed = true
			}
		}
		if !changed {
			break
		}
		changedPasses++
		if a, err = core.NewAnalyzer(set); err != nil {
			return 0, err
		}
	}
	return changedPasses, nil
}

// checkInflate generates the same uninflated set twice, inflates one
// copy with the full-pass oracle and the other with inflate, both
// limited to maxPasses, and requires identical periods and deadlines,
// and bounds equal to a fresh analyzer's CalUSearchCap over the final
// set. It returns the oracle's count of passes that changed a period.
func checkInflate(t *testing.T, name string, ucap, maxPasses int, gen func() (*stream.Set, *core.Analyzer, error)) int {
	t.Helper()
	ref, refA, err := gen()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, gotA, err := gen()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	passes, err := inflateFullPasses(ref, refA, ucap, maxPasses)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	us, err := inflate(got, gotA, ucap, maxPasses)
	if err != nil {
		t.Fatalf("%s: Inflate: %v", name, err)
	}
	for i, w := range ref.Streams {
		g := got.Streams[i]
		if g.Period != w.Period || g.Deadline != w.Deadline {
			t.Fatalf("%s: stream %d: Inflate period/deadline %d/%d, full passes %d/%d",
				name, i, g.Period, g.Deadline, w.Period, w.Deadline)
		}
	}
	fresh, err := core.NewAnalyzer(got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	calc := fresh.NewCalc()
	for _, s := range got.Streams {
		want, err := calc.CalUSearchCap(s.ID, ucap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if us[s.ID] != want {
			t.Fatalf("%s: stream %d: Inflate bound %d, fresh CalUSearchCap %d", name, s.ID, us[s.ID], want)
		}
	}
	return passes
}

func uninflated(cfg Config) Config {
	cfg.InflatePeriods = false
	return cfg
}

// TestInflateMatchesFullPassesPatterns covers every destination
// pattern on the paper's mesh.
func TestInflateMatchesFullPassesPatterns(t *testing.T) {
	for _, p := range []Pattern{Uniform, Transpose, BitReversal, Hotspot, NearestNeighbor} {
		for _, seed := range []int64{1, 2} {
			cfg := uninflated(PaperDefaults(30, 4, seed))
			checkInflate(t, fmt.Sprintf("%s seed %d", p, seed), 1<<16, maxInflatePasses, func() (*stream.Set, *core.Analyzer, error) {
				return GeneratePattern(cfg, p)
			})
		}
	}
}

// TestInflateMatchesFullPassesTopologies runs GenerateOn on networks
// other than the mesh.
func TestInflateMatchesFullPassesTopologies(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewRing(16), topology.NewHypercube(5), topology.NewTorus2D(5, 5),
	} {
		cfg := uninflated(PaperDefaults(16, 3, 11))
		checkInflate(t, topo.Name(), 1<<16, maxInflatePasses, func() (*stream.Set, *core.Analyzer, error) {
			return GenerateOn(topo, cfg)
		})
	}
}

// TestInflateMatchesFullPassesPaperTables covers the workloads of
// Tables 1-5 at the paper's seeds (exp.PaperTable: seed 1000+n, trial
// seeds 7919 apart).
func TestInflateMatchesFullPassesPaperTables(t *testing.T) {
	tables := []struct{ n, streams, plevels int }{
		{1, 20, 1}, {2, 60, 1}, {3, 20, 4}, {4, 20, 5}, {5, 60, 15},
	}
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for _, tb := range tables {
		for trial := 0; trial < trials; trial++ {
			seed := int64(1000+tb.n) + int64(trial)*7919
			cfg := uninflated(PaperDefaults(tb.streams, tb.plevels, seed))
			checkInflate(t, fmt.Sprintf("table %d trial %d", tb.n, trial), 1<<16, maxInflatePasses, func() (*stream.Set, *core.Analyzer, error) {
				return Generate(cfg)
			})
		}
	}
}

// TestInflateMatchesFullPassesAtPassLimit: with a search cap below
// some streams' deadlines, their bounds stay -1 and their periods keep
// quadrupling, so the rule runs all eight passes without a fixpoint.
// Inflate must stop there with the same periods and bounds.
func TestInflateMatchesFullPassesAtPassLimit(t *testing.T) {
	cfg := uninflated(PaperDefaults(40, 2, 5))
	passes := checkInflate(t, "ucap 100", 100, maxInflatePasses, func() (*stream.Set, *core.Analyzer, error) {
		return Generate(cfg)
	})
	if passes != maxInflatePasses {
		t.Fatalf("oracle changed periods in %d passes, want the %d-pass limit", passes, maxInflatePasses)
	}
}

// TestInflateMatchesFullPassesShortLimit stops the rule after one to
// two passes, while raises are still reaching lower-ID dependents
// computed earlier in the same pass. At the eight-pass limit the last
// changes are quadruplings past the cap that move no bound, so only a
// short limit shows that the bounds left stale by the final pass are
// recomputed against the final periods.
func TestInflateMatchesFullPassesShortLimit(t *testing.T) {
	for _, tb := range []struct{ n, streams, plevels int }{{2, 60, 1}, {5, 60, 15}} {
		cfg := uninflated(PaperDefaults(tb.streams, tb.plevels, int64(1000+tb.n)))
		for limit := 1; limit <= 2; limit++ {
			passes := checkInflate(t, fmt.Sprintf("table %d limit %d", tb.n, limit), 1<<16, limit, func() (*stream.Set, *core.Analyzer, error) {
				return Generate(cfg)
			})
			if passes != limit {
				t.Fatalf("table %d: oracle changed periods in %d passes, want all %d", tb.n, passes, limit)
			}
		}
	}
}

// TestInflateDefaultCap: a zero cap means 65536 flit times, as for
// Config.UCap.
func TestInflateDefaultCap(t *testing.T) {
	cfg := uninflated(PaperDefaults(20, 2, 9))
	set, a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Inflate(set, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, refA, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Inflate(ref, refA, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range zero {
		if zero[i] != explicit[i] || set.Streams[i].Period != ref.Streams[i].Period {
			t.Fatalf("stream %d: cap 0 gave bound %d period %d, cap 65536 bound %d period %d",
				i, zero[i], set.Streams[i].Period, explicit[i], ref.Streams[i].Period)
		}
	}
}
