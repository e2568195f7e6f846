package topology

import "testing"

func TestParseRoundTripsNames(t *testing.T) {
	for _, topo := range []Topology{
		NewMesh2D(10, 10), NewMesh2D(4, 1), NewTorus2D(4, 8),
		NewHypercube(5), NewRing(16),
	} {
		got, err := Parse(topo.Name())
		if err != nil {
			t.Fatalf("Parse(%q): %v", topo.Name(), err)
		}
		if got.Name() != topo.Name() || got.Nodes() != topo.Nodes() {
			t.Fatalf("Parse(%q) = %s with %d nodes", topo.Name(), got.Name(), got.Nodes())
		}
	}
}

func TestParseRejectsMalformedNames(t *testing.T) {
	for _, name := range []string{
		"", "mesh2d", "mesh2d-10", "mesh2d-0x5", "mesh2d-axb",
		"torus2d-1x4", "hypercube-0", "hypercube-21", "hypercube-x",
		"ring-2", "ring-abc", "bus-4", "custom-3",
	} {
		if _, err := Parse(name); err == nil {
			t.Fatalf("Parse(%q) accepted", name)
		}
	}
}
