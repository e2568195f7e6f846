package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a topology from its canonical short name — the exact
// strings Name() produces:
//
//	mesh2d-10x10   torus2d-4x8   hypercube-5   ring-16
//
// so Parse(t.Name()) reconstructs t for every regular topology kind.
// Custom (irregular) topologies carry an edge list and have no short
// name; they are described by a stream.TopologySpec instead. The
// sweep tooling (cmd/rtwexplore, cmd/netsim) uses Parse for its
// comma-separated topology flags.
func Parse(name string) (Topology, error) {
	kind, rest, ok := strings.Cut(name, "-")
	if !ok {
		return nil, fmt.Errorf("topology: %q is not kind-size (e.g. mesh2d-10x10, ring-16)", name)
	}
	switch kind {
	case "mesh2d", "torus2d":
		ws, hs, ok := strings.Cut(rest, "x")
		if !ok {
			return nil, fmt.Errorf("topology: %q needs WxH dimensions", name)
		}
		w, err := parseDim(name, ws)
		if err != nil {
			return nil, err
		}
		h, err := parseDim(name, hs)
		if err != nil {
			return nil, err
		}
		if kind == "mesh2d" {
			if w < 1 || h < 1 {
				return nil, fmt.Errorf("topology: %q needs positive dimensions", name)
			}
			return NewMesh2D(w, h), nil
		}
		if w < 2 || h < 2 {
			return nil, fmt.Errorf("topology: %q needs dimensions >= 2", name)
		}
		return NewTorus2D(w, h), nil
	case "hypercube":
		d, err := parseDim(name, rest)
		if err != nil {
			return nil, err
		}
		if d < 1 || d > 20 {
			return nil, fmt.Errorf("topology: %q dimension out of range [1,20]", name)
		}
		return NewHypercube(d), nil
	case "ring":
		n, err := parseDim(name, rest)
		if err != nil {
			return nil, err
		}
		if n < 3 {
			return nil, fmt.Errorf("topology: %q needs at least 3 nodes", name)
		}
		return NewRing(n), nil
	default:
		return nil, fmt.Errorf("topology: unknown kind %q (want mesh2d, torus2d, hypercube or ring)", kind)
	}
}

func parseDim(name, s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("topology: %q has a malformed size %q", name, s)
	}
	return v, nil
}
