package explore

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/grid"
	"repro/internal/topology"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// testWorkload is a small §5-style workload on a 4×4 mesh: 14 heavy
// streams (C up to 32 flits), 2 priority levels, periods inflated so
// the origin mesh admits it — heavy enough that smaller or thinner
// configurations reject part of the set and the grid discriminates.
func testWorkload(t *testing.T) Workload {
	t.Helper()
	set, _, err := workload.Generate(workload.Config{
		MeshW: 4, MeshH: 4, Streams: 14, PLevels: 2,
		CMin: 8, CMax: 32, TMin: 40, TMax: 90,
		Seed: 7, InflatePeriods: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return FromSet("test-4x4", set)
}

// lightWorkload is gentle enough (8 short streams on 4 levels) that
// the simulator confirms the analysis verdict with zero misses: few
// streams share a priority level, so the same-priority head-of-line
// hazard the model does not charge (see exp.CrossCheck) is absent.
func lightWorkload(t *testing.T) Workload {
	t.Helper()
	set, _, err := workload.Generate(workload.Config{
		MeshW: 4, MeshH: 4, Streams: 8, PLevels: 4,
		CMin: 1, CMax: 8, TMin: 40, TMax: 90,
		Seed: 7, InflatePeriods: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return FromSet("light-4x4", set)
}

// testSpace covers every axis: all four families (two at origin size,
// one smaller, forcing re-placement), an invalid topology/routing
// combination (XY on non-meshes), both swept ints, two policies.
func testSpace() Space {
	return Space{
		Topologies: []string{"mesh2d-4x4", "torus2d-4x4", "hypercube-4", "ring-16", "ring-8"},
		Routings:   []string{RoutingCanonical, RoutingXY},
		VCs:        []int{1, 2},
		Buffers:    []int{1, 2},
		Policies:   []string{PolicyWorkload, PolicyRateMonotonic},
	}
}

func TestEnumerate(t *testing.T) {
	sp := testSpace()
	points, err := sp.Enumerate(42)
	if err != nil {
		t.Fatal(err)
	}
	// Full grid 5·2·2·2·2 = 80; XY is valid only on the mesh, so the
	// four non-mesh topologies lose their 8 XY points each.
	if want := 80 - 4*8; len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	seen := make(map[int]bool)
	last := -1
	for _, p := range points {
		if p.Index <= last {
			t.Fatalf("indexes not strictly increasing: %d after %d", p.Index, last)
		}
		last = p.Index
		if seen[p.Index] {
			t.Fatalf("duplicate index %d", p.Index)
		}
		seen[p.Index] = true
		if p.Routing == RoutingXY && !strings.HasPrefix(p.Topology, "mesh2d-") {
			t.Fatalf("XY survived on %s", p.Topology)
		}
		if p.Seed != grid.PointSeed(42, p.Index) {
			t.Fatalf("point %d seed %d not derived from index", p.Index, p.Seed)
		}
	}
}

func TestEnumerateRejectsBadSpaces(t *testing.T) {
	bad := []Space{
		{},
		{Topologies: []string{"mesh2d-4x4"}},
		{Topologies: []string{"nope-3"}, Routings: []string{RoutingCanonical}, VCs: []int{1}, Buffers: []int{1}, Policies: []string{PolicyWorkload}},
		{Topologies: []string{"mesh2d-4x4", "mesh2d-4x4"}, Routings: []string{RoutingCanonical}, VCs: []int{1}, Buffers: []int{1}, Policies: []string{PolicyWorkload}},
		{Topologies: []string{"mesh2d-4x4"}, Routings: []string{"spiral"}, VCs: []int{1}, Buffers: []int{1}, Policies: []string{PolicyWorkload}},
		{Topologies: []string{"mesh2d-4x4"}, Routings: []string{RoutingCanonical}, VCs: []int{0}, Buffers: []int{1}, Policies: []string{PolicyWorkload}},
		{Topologies: []string{"mesh2d-4x4"}, Routings: []string{RoutingCanonical}, VCs: []int{1}, Buffers: []int{-1}, Policies: []string{PolicyWorkload}},
		{Topologies: []string{"mesh2d-4x4"}, Routings: []string{RoutingCanonical}, VCs: []int{1}, Buffers: []int{1}, Policies: []string{"random"}},
		// Only invalid combinations left after dropping.
		{Topologies: []string{"ring-8"}, Routings: []string{RoutingXY}, VCs: []int{1}, Buffers: []int{1}, Policies: []string{PolicyWorkload}},
	}
	for i, sp := range bad {
		if _, err := sp.Enumerate(1); err == nil {
			t.Errorf("space %d accepted: %+v", i, sp)
		}
	}
}

func TestSweepInvariants(t *testing.T) {
	w := testWorkload(t)
	res, err := Sweep(w, testSpace(), SweepConfig{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands != 14 || res.TotalUtil <= 0 {
		t.Fatalf("bad header: %+v", res)
	}
	if len(res.Points) != 48 {
		t.Fatalf("got %d points", len(res.Points))
	}
	foundBest, foundWorst := false, false
	for i := range res.Points {
		p := &res.Points[i]
		if i > 0 && p.Index <= res.Points[i-1].Index {
			t.Fatalf("points not in grid order at %d", i)
		}
		if p.Total != 14 || p.Admitted < 0 || p.Admitted > p.Total {
			t.Fatalf("point %d counts: %+v", p.Index, p)
		}
		if p.Cost <= 0 || p.Nodes <= 0 || p.Links <= 0 {
			t.Fatalf("point %d sizing: %+v", p.Index, p)
		}
		if p.AdmittedUtil < 0 || p.AdmittedUtil > p.TotalUtil+1e-9 {
			t.Fatalf("point %d util: %+v", p.Index, p)
		}
		if p.FullyAdmitted != (p.Admitted == p.Total) {
			t.Fatalf("point %d fullyAdmitted mismatch", p.Index)
		}
		if p.Validated {
			t.Fatalf("point %d validated without Validate", p.Index)
		}
		if p.Index == res.BestIndex {
			foundBest = true
		}
		if p.Index == res.WorstIndex {
			foundWorst = true
		}
	}
	if !foundBest || !foundWorst {
		t.Fatalf("best %d / worst %d not in points", res.BestIndex, res.WorstIndex)
	}
	if res.SpreadPct < 0 || res.SpreadPct > 100 {
		t.Fatalf("spread %v", res.SpreadPct)
	}
}

// TestSweepOriginAdmitsAll: the workload's periods were inflated to the
// analysis bounds on the origin mesh, so the origin configuration with
// VCs ≥ PLevels must admit the full set — the explorer reproduces the
// paper's construction.
func TestSweepOriginAdmitsAll(t *testing.T) {
	w := lightWorkload(t)
	sp := Space{
		Topologies: []string{"mesh2d-4x4"},
		Routings:   []string{RoutingCanonical},
		VCs:        []int{4},
		Buffers:    []int{1},
		Policies:   []string{PolicyWorkload},
	}
	res, err := Sweep(w, sp, SweepConfig{Seed: 1, Eval: EvalConfig{Validate: true, ValidateCycles: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if !p.FullyAdmitted {
		t.Fatalf("origin config did not admit the full set: %+v", p)
	}
	if !p.Validated || p.SimDelivered == 0 {
		t.Fatalf("validation did not run: %+v", p)
	}
	if !p.Admitting || p.SimMisses != 0 {
		t.Fatalf("admitted set missed deadlines in the simulator: %+v", p)
	}
}

// TestSweepDeterministicAcrossWorkers is satellite 3's core guarantee:
// the emitted JSON is byte-identical for every worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	w := testWorkload(t)
	sp := testSpace()
	var first []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := Sweep(w, sp, SweepConfig{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("workers=%d JSON differs from workers=1", workers)
		}
	}
}

// TestSweepGolden pins the full sweep artifact byte-for-byte.
func TestSweepGolden(t *testing.T) {
	w := testWorkload(t)
	res, err := Sweep(w, testSpace(), SweepConfig{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sweep_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("sweep JSON differs from %s (run with -update after verifying)", path)
	}
}

func TestSynthesizeExhaustiveMatchesSweep(t *testing.T) {
	w := testWorkload(t)
	sp := testSpace()
	syn, err := Synthesize(w, sp, SynthConfig{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !syn.Exhaustive || syn.Evaluated != syn.GridPoints || syn.GridPoints != 48 {
		t.Fatalf("expected exhaustive 48-point search: %+v", syn)
	}
	// Cross-check the winner against an independently computed answer.
	swp, err := Sweep(w, sp, SweepConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var want *PointResult
	for i := range swp.Points {
		p := &swp.Points[i]
		if !p.Admitting {
			continue
		}
		if want == nil || p.Cost < want.Cost || (p.Cost == want.Cost && p.Index < want.Index) {
			want = p
		}
	}
	if (want == nil) != (syn.Winner == nil) {
		t.Fatalf("winner presence mismatch: sweep %v, synth %v", want, syn.Winner)
	}
	if want != nil && (syn.Winner.Index != want.Index || syn.Winner.Cost != want.Cost) {
		t.Fatalf("winner mismatch: synth %+v, sweep says %+v", syn.Winner, want)
	}
	// Frontier: strictly increasing cost and admitted utilization.
	for i := 1; i < len(syn.Frontier); i++ {
		a, b := &syn.Frontier[i-1], &syn.Frontier[i]
		if b.Cost <= a.Cost || b.AdmittedUtil <= a.AdmittedUtil {
			t.Fatalf("frontier not strictly improving at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestSynthesizeEarlyStop forces the chunked cheapest-first path and
// checks it finds the same winner as the exhaustive search while
// evaluating only whole chunks.
func TestSynthesizeEarlyStop(t *testing.T) {
	w := testWorkload(t)
	sp := testSpace()
	full, err := Synthesize(w, sp, SynthConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Synthesize(w, sp, SynthConfig{Seed: 42, Workers: 4, ExhaustiveLimit: 8, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Exhaustive {
		t.Fatal("expected pruned search")
	}
	if pruned.Evaluated%4 != 0 && pruned.Evaluated != pruned.GridPoints {
		t.Fatalf("evaluated %d is not whole chunks", pruned.Evaluated)
	}
	if (full.Winner == nil) != (pruned.Winner == nil) {
		t.Fatalf("winner presence mismatch")
	}
	if full.Winner != nil {
		if pruned.Winner.Index != full.Winner.Index || pruned.Winner.Cost != full.Winner.Cost {
			t.Fatalf("pruned winner %+v, exhaustive winner %+v", pruned.Winner, full.Winner)
		}
		if pruned.Evaluated > full.Evaluated {
			t.Fatalf("pruning evaluated more points (%d) than exhaustive (%d)", pruned.Evaluated, full.Evaluated)
		}
	}
}

func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	w := testWorkload(t)
	sp := testSpace()
	var first []byte
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		res, err := Synthesize(w, sp, SynthConfig{Seed: 42, Workers: workers, ExhaustiveLimit: 8, ChunkSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("workers=%d synth JSON differs", workers)
		}
	}
}

func TestAssignPriorities(t *testing.T) {
	mk := func() []admit.Spec {
		return []admit.Spec{
			{Priority: 1, Period: 90, Deadline: 50},
			{Priority: 3, Period: 40, Deadline: 90},
			{Priority: 2, Period: 60, Deadline: 60},
			{Priority: 2, Period: 50, Deadline: 70},
		}
	}
	cases := []struct {
		policy string
		vcs    int
		want   []int
	}{
		// Rank bands follow priority.Quantize: rank r (0 = least
		// important) gets 1+r·vcs/n capped at vcs.
		{PolicyWorkload, 4, []int{1, 4, 3, 2}},
		{PolicyWorkload, 2, []int{1, 2, 2, 1}},
		{PolicyWorkload, 1, []int{1, 1, 1, 1}},
		// Rate monotonic: shorter period more important.
		{PolicyRateMonotonic, 4, []int{1, 4, 2, 3}},
		// Deadline monotonic: shorter deadline more important.
		{PolicyDeadlineMonotonic, 4, []int{4, 1, 3, 2}},
	}
	for _, c := range cases {
		specs := mk()
		if err := assignPriorities(specs, c.policy, c.vcs); err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if specs[i].Priority != c.want[i] {
				t.Errorf("%s/vcs=%d: got %v, want %v", c.policy, c.vcs,
					[]int{specs[0].Priority, specs[1].Priority, specs[2].Priority, specs[3].Priority}, c.want)
				break
			}
		}
	}
	if err := assignPriorities(mk(), "chaotic", 4); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPlace(t *testing.T) {
	w := testWorkload(t)
	mesh, err := topology.Parse("mesh2d-4x4")
	if err != nil {
		t.Fatal(err)
	}
	identity := w.place(mesh, 99)
	for i, d := range w.Demands {
		if int(identity[i].Src) != d.Src || int(identity[i].Dst) != d.Dst {
			t.Fatalf("identity placement moved demand %d", i)
		}
	}
	ring, err := topology.Parse("ring-8")
	if err != nil {
		t.Fatal(err)
	}
	a := w.place(ring, 5)
	b := w.place(ring, 5)
	c := w.place(ring, 6)
	differs := false
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst {
			t.Fatalf("same seed placed differently at %d", i)
		}
		if int(a[i].Src) < 0 || int(a[i].Src) >= 8 || int(a[i].Dst) < 0 || int(a[i].Dst) >= 8 {
			t.Fatalf("placement %d out of range: %+v", i, a[i])
		}
		if a[i].Src == a[i].Dst {
			t.Fatalf("placement %d self-loop", i)
		}
		if a[i].Src != c[i].Src || a[i].Dst != c[i].Dst {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical placement")
	}
}

func TestPaperPool(t *testing.T) {
	w, err := PaperPool(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.OriginNodes != 100 || len(w.Demands) != 12 {
		t.Fatalf("pool shape: %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Name != "paper-s12-p4-seed1" {
		t.Fatalf("pool name %q", w.Name)
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := Demand{Src: 0, Dst: 1, Priority: 1, Period: 10, Length: 2, Deadline: 10}
	bad := []Workload{
		{Name: "empty", OriginNodes: 4},
		{Name: "nodes", OriginNodes: 1, Demands: []Demand{good}},
		{Name: "range", OriginNodes: 4, Demands: []Demand{{Src: 0, Dst: 9, Priority: 1, Period: 10, Length: 2, Deadline: 10}}},
		{Name: "self", OriginNodes: 4, Demands: []Demand{{Src: 1, Dst: 1, Priority: 1, Period: 10, Length: 2, Deadline: 10}}},
		{Name: "period", OriginNodes: 4, Demands: []Demand{{Src: 0, Dst: 1, Priority: 1, Period: 0, Length: 2, Deadline: 10}}},
		{Name: "prio", OriginNodes: 4, Demands: []Demand{{Src: 0, Dst: 1, Priority: 0, Period: 10, Length: 2, Deadline: 10}}},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("workload %q accepted", w.Name)
		}
	}
	ok := Workload{Name: "ok", OriginNodes: 4, Demands: []Demand{good}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	// 4·nodes + 2·links·vcs + 1·links·vcs·depth
	if got := c.Cost(16, 48, 2, 2); got != 4*16+2*48*2+48*2*2 {
		t.Fatalf("cost %d", got)
	}
	if err := (CostModel{PerNode: -1}).validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := (CostModel{}).validate(); err == nil {
		t.Fatal("all-zero model accepted")
	}
}

func TestCSVAndSVG(t *testing.T) {
	w := testWorkload(t)
	sp := testSpace()
	swp, err := Sweep(w, sp, SweepConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(w, sp, SynthConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]func() ([]byte, error){"sweep": swp.CSV, "synth": syn.CSV} {
		data, err := b()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("%s CSV does not parse: %v", name, err)
		}
		if len(rows) < 2 || len(rows[0]) != len(csvHeader) {
			t.Fatalf("%s CSV shape: %d rows × %d cols", name, len(rows), len(rows[0]))
		}
	}
	// header + one row per point + trailing newline
	if got := len(strings.Split(string(mustCSV(t, swp.CSV)), "\n")); got != len(swp.Points)+2 {
		t.Fatalf("sweep CSV has %d lines, want %d", got, len(swp.Points)+2)
	}
	for name, svg := range map[string]string{"sweep": swp.SVG(), "synth": syn.SVG()} {
		if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
			t.Fatalf("%s SVG not well-formed", name)
		}
		if !strings.Contains(svg, "<circle") {
			t.Fatalf("%s SVG has no points", name)
		}
	}
}

func mustCSV(t *testing.T, f func() ([]byte, error)) []byte {
	t.Helper()
	b, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
