package sim

import (
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestSimulatorOnTorus: the simulator is topology-agnostic; wrap-around
// routes measure their exact network latency when unloaded.
func TestSimulatorOnTorus(t *testing.T) {
	tr := topology.NewTorus2D(6, 6)
	r := routing.NewTorusDOR(tr)
	set := stream.NewSet(tr)
	// (0,0) -> (5,5): one wrap hop in each dimension = 2 hops.
	if _, err := set.Add(r, tr.ID(0, 0), tr.ID(5, 5), 1, 100, 6, 100); err != nil {
		t.Fatal(err)
	}
	s, err := New(set, Config{Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	st := res.PerStream[0]
	want := set.Get(0).Latency // 2 + 6 - 1 = 7
	if want != 7 {
		t.Fatalf("latency precondition: %d", want)
	}
	if st.Observed == 0 || st.MinLatency != want || st.MaxLatency != want {
		t.Fatalf("torus latency [%d,%d] over %d, want %d", st.MinLatency, st.MaxLatency, st.Observed, want)
	}
}

// TestSimulatorOnHypercube: e-cube routes on a 4-cube with contention
// still respect priority ordering.
func TestSimulatorOnHypercube(t *testing.T) {
	h := topology.NewHypercube(4)
	r := routing.NewECube(h)
	set := stream.NewSet(h)
	// Both streams traverse channel 0->1 first (bit 0 corrected first).
	if _, err := set.Add(r, 0, 0b1111, 2, 40, 4, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(r, 0, 0b0111, 1, 50, 12, 100); err != nil {
		t.Fatal(err)
	}
	s, err := New(set, Config{Cycles: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	hi := res.PerStream[0]
	if hi.MaxLatency != set.Get(0).Latency {
		t.Fatalf("high priority delayed on hypercube: max %d, want %d", hi.MaxLatency, set.Get(0).Latency)
	}
	if res.PerStream[1].Observed == 0 {
		t.Fatal("low priority starved")
	}
}

// TestSimulatorOnRing: shortest-arc routing on a ring.
func TestSimulatorOnRing(t *testing.T) {
	rg := topology.NewRing(8)
	r := routing.NewRingShortest(rg)
	set := stream.NewSet(rg)
	if _, err := set.Add(r, 0, 6, 1, 60, 5, 60); err != nil { // 2 hops backwards
		t.Fatal(err)
	}
	s, err := New(set, Config{Cycles: 600})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.PerStream[0].MaxLatency != 6 { // 2 + 5 - 1
		t.Fatalf("ring latency %d, want 6", res.PerStream[0].MaxLatency)
	}
}

// TestChannelStats: flits crossed per channel are counted, utilisation
// is consistent, and unused channels are absent.
func TestChannelStats(t *testing.T) {
	m := topology.NewMesh2D(4, 1)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	if _, err := set.Add(r, 0, 3, 1, 10, 5, 10); err != nil {
		t.Fatal(err)
	}
	s, err := New(set, Config{Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if len(res.PerChannel) != 3 {
		t.Fatalf("%d channels with traffic, want 3", len(res.PerChannel))
	}
	// 100 messages * 5 flits cross each channel (maybe minus the tail
	// of an unfinished one).
	for ch, cs := range res.PerChannel {
		if cs.Flits < 495 || cs.Flits > 500 {
			t.Fatalf("channel %s carried %d flits, want ~500", ch, cs.Flits)
		}
		if u := cs.Utilization(res.Cycles); u < 0.49 || u > 0.51 {
			t.Fatalf("channel %s utilisation %.3f, want ~0.5", ch, u)
		}
	}
	if (ChannelStats{}).Utilization(0) != 0 {
		t.Fatal("zero-cycle utilisation should be 0")
	}
}

// TestMeshHeatmap: the heatmap marks used links with digits and unused
// links with dots.
func TestMeshHeatmap(t *testing.T) {
	m := topology.NewMesh2D(3, 2)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	if _, err := set.Add(r, m.ID(0, 0), m.ID(2, 0), 1, 10, 5, 10); err != nil {
		t.Fatal(err)
	}
	s, err := New(set, Config{Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	out := MeshHeatmap(m, res)
	if !strings.Contains(out, "o 5 o 5 o") {
		t.Fatalf("row-0 links should be at ~50%%:\n%s", out)
	}
	if !strings.Contains(out, ".   .   .") {
		t.Fatalf("vertical links should be unused:\n%s", out)
	}
}

// TestSimulatorOnCustomTopology: an irregular network (decoded from
// JSON) routes breadth-first and measures exact unloaded latency.
func TestSimulatorOnCustomTopology(t *testing.T) {
	in := `{
		"topology": {"kind": "custom", "n": 5, "name": "board",
			"edges": [[0,1],[1,0],[1,2],[2,1],[2,3],[3,2],[3,4],[4,3],[1,4],[4,1]]},
		"streams": [
			{"src": 0, "dst": 4, "priority": 2, "period": 60, "length": 5},
			{"src": 2, "dst": 4, "priority": 1, "period": 80, "length": 8}
		]
	}`
	set, err := stream.DecodeSet(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// BFS shortest: 0->1->4 = 2 hops, so L = 2 + 5 - 1 = 6.
	if set.Get(0).Latency != 6 {
		t.Fatalf("custom route latency %d, want 6", set.Get(0).Latency)
	}
	s, err := New(set, Config{Cycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.PerStream[0].MaxLatency != 6 {
		t.Fatalf("simulated latency %d, want 6", res.PerStream[0].MaxLatency)
	}
	if res.PerStream[1].Observed == 0 {
		t.Fatal("second stream starved")
	}
}
