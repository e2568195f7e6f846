package mc

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func smallConfig() Config {
	return Config{
		Seeds:    4,
		BaseSeed: 7,
		Points: []PointConfig{
			{Topology: "mesh2d-6x6", Streams: 10, PLevels: 4, Arbiter: sim.Preemptive, Cycles: 3000, Warmup: 100},
			{Topology: "ring-8", Streams: 6, PLevels: 3, Arbiter: sim.NonPreemptiveFIFO, Cycles: 3000, Warmup: 100},
		},
	}
}

// TestRunMatchesDirectSimulation pins a replication's extracted
// metrics against a by-hand simulation of the same derived seed.
func TestRunMatchesDirectSimulation(t *testing.T) {
	cfg := smallConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replications) != 8 || len(res.Points) != 2 {
		t.Fatalf("got %d replications, %d points", len(res.Replications), len(res.Points))
	}
	// Replication (point 1, seed 2) has index 1*4+2 = 6.
	rep := res.Replications[6]
	wseed := grid.PointSeed(cfg.BaseSeed, 6)
	if rep.WorkloadSeed != wseed {
		t.Fatalf("workload seed %d, want %d", rep.WorkloadSeed, wseed)
	}
	topo, err := topology.Parse("ring-8")
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := workload.GenerateOn(topo, workload.PaperDefaults(6, 3, wseed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(set, sim.Config{Cycles: 3000, Warmup: 100, Arbiter: sim.NonPreemptiveFIFO, BufferDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := s.Run()
	if rep.Delivered != direct.TotalDelivered() || rep.Misses != direct.TotalMisses() {
		t.Fatalf("replication (delivered=%d misses=%d) vs direct (delivered=%d misses=%d)",
			rep.Delivered, rep.Misses, direct.TotalDelivered(), direct.TotalMisses())
	}
}

// TestCheckMode exercises the per-replication cross-check against the
// cycle-accurate oracle.
func TestCheckMode(t *testing.T) {
	cfg := smallConfig()
	cfg.Seeds = 2
	cfg.Check = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDistOf(t *testing.T) {
	d := distOf([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if d.Mean != 5 {
		t.Fatalf("mean %v, want 5", d.Mean)
	}
	if got := 2.13808993529939; math.Abs(d.Std-got) > 1e-12 {
		t.Fatalf("std %v, want %v", d.Std, got)
	}
	if want := 1.96 * d.Std / math.Sqrt(8); math.Abs(d.CI95-want) > 1e-12 {
		t.Fatalf("ci95 %v, want %v", d.CI95, want)
	}
	if d.P50 != 4 || d.P95 != 9 || d.Min != 2 || d.Max != 9 {
		t.Fatalf("quantiles %+v", d)
	}
	one := distOf([]float64{3})
	if one.Mean != 3 || one.Std != 0 || one.CI95 != 0 || one.P50 != 3 {
		t.Fatalf("singleton dist %+v", one)
	}
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Seeds: 0, Points: []PointConfig{{}}},
		{Seeds: 1},
		{Seeds: 1, Workers: -1, Points: []PointConfig{{}}},
		{Seeds: 1, Engine: "warp", Points: []PointConfig{{}}},
		{Seeds: 1, Engine: "cycle", Points: []PointConfig{{}}},
	} {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if err := (Config{Seeds: 1, Engine: EngineEvent, Points: []PointConfig{{}}}).validate(); err != nil {
		t.Fatalf("Engine %q refused: %v", EngineEvent, err)
	}
	if _, err := Run(Config{Seeds: 1, Points: []PointConfig{{Topology: "nonsense-3"}}}); err == nil {
		t.Fatal("bad topology accepted")
	}
}

// TestRunReportsEveryFailingPoint mixes a good point with two whose
// topology does not parse: validate accepts them, and every one of
// their replications fails. The error must name both bad points with
// their failure counts, wrap each point's first failure, and read the
// same for any worker count.
func TestRunReportsEveryFailingPoint(t *testing.T) {
	cfg := smallConfig()
	cfg.Seeds = 3
	bad := []string{"nonsense-3", "mesh2d-7"}
	cfg.Points = []PointConfig{
		cfg.Points[0],
		{Topology: bad[0], Arbiter: sim.Preemptive},
		{Topology: bad[1], Arbiter: sim.Li},
	}
	var parseErrs []string
	for _, name := range bad {
		_, err := topology.Parse(name)
		if err == nil {
			t.Fatalf("topology %q parses", name)
		}
		parseErrs = append(parseErrs, err.Error())
	}
	want := "mc: 6 of 9 replications failed, in 2 of 3 points:\n" +
		"point 1 (nonsense-3/preemptive/b2): 3 of 3 replications failed; first, seed 0: " + parseErrs[0] + "\n" +
		"point 2 (mesh2d-7/li/b2): 3 of 3 replications failed; first, seed 0: " + parseErrs[1]
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		res, err := Run(cfg)
		if err == nil || res != nil {
			t.Fatalf("workers=%d: study with unparsable topologies returned %v, %v", w, res, err)
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: error\n%s\nwant\n%s", w, err, want)
		}
		for _, msg := range parseErrs {
			if !wraps(err, msg) {
				t.Fatalf("workers=%d: error does not wrap %q", w, msg)
			}
		}
	}
}

// wraps reports whether msg is the message of err or of an error err
// wraps, following both single and joined wrapping.
func wraps(err error, msg string) bool {
	if err.Error() == msg {
		return true
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		return wraps(u.Unwrap(), msg)
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			if wraps(e, msg) {
				return true
			}
		}
	}
	return false
}

// TestOutputs sanity-checks the three encoders on a real result.
func TestOutputs(t *testing.T) {
	cfg := smallConfig()
	cfg.Seeds = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"missRatio"`) {
		t.Fatalf("JSON missing missRatio: %s", buf.String()[:200])
	}
	buf.Reset()
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("CSV has %d lines, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "point,name,topology,arbiter") {
		t.Fatalf("CSV header %q", lines[0])
	}
	buf.Reset()
	if err := res.Table(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "miss ratio") {
		t.Fatalf("table output %q", buf.String())
	}
}
