package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Pattern selects how destinations are derived from sources. Uniform is
// the paper's spatial uniform distribution; the others are the standard
// synthetic traffic patterns of the wormhole-routing literature (Ni &
// McKinley's survey, the paper's reference [5]) and probe different
// overlap structures: transpose and bit-reversal concentrate traffic on
// diagonal channels, hotspot converges on one node, and
// nearest-neighbour barely overlaps at all.
type Pattern int

const (
	// Uniform draws destinations uniformly over the other nodes (the
	// paper's setup).
	Uniform Pattern = iota
	// Transpose sends (x, y) -> (y, x) on a square mesh.
	Transpose
	// BitReversal sends node b_{n-1}..b_0 -> b_0..b_{n-1} (node-index
	// bit reversal).
	BitReversal
	// Hotspot sends every stream to one common node (drawn per
	// workload), modelling a shared server or memory controller.
	Hotspot
	// NearestNeighbor sends each source to a uniformly chosen adjacent
	// node.
	NearestNeighbor
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitReversal:
		return "bit-reversal"
	case Hotspot:
		return "hotspot"
	case NearestNeighbor:
		return "nearest-neighbor"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// destination applies the pattern for a source node. The hotspot node
// and rng are supplied by the generator. ok is false when the pattern
// maps the source to itself (callers skip such sources); Transpose
// serves only sources on a 2D mesh.
func (p Pattern) destination(t topology.Topology, src topology.NodeID, hotspot topology.NodeID, rng *rand.Rand) (topology.NodeID, bool) {
	switch p {
	case Uniform:
		dst := src
		for dst == src {
			dst = topology.NodeID(rng.Intn(t.Nodes()))
		}
		return dst, true
	case Transpose:
		m, isMesh := t.(*topology.Mesh2D)
		if !isMesh {
			return src, false
		}
		x, y := m.XY(src)
		if x == y {
			return src, false
		}
		return m.ID(y, x), true
	case BitReversal:
		bits := 0
		for 1<<bits < t.Nodes() {
			bits++
		}
		v := int(src)
		r := 0
		for b := 0; b < bits; b++ {
			r = r<<1 | (v >> b & 1)
		}
		if r >= t.Nodes() || topology.NodeID(r) == src {
			return src, false
		}
		return topology.NodeID(r), true
	case Hotspot:
		if hotspot == src {
			return src, false
		}
		return hotspot, true
	case NearestNeighbor:
		nbs := t.Neighbors(src)
		return nbs[rng.Intn(len(nbs))], true
	}
	return src, false
}

// GeneratePattern is Generate with a destination pattern. Sources are
// distinct random nodes; sources the pattern cannot serve (fixed points
// like the transpose diagonal) are skipped and replaced, so the
// requested stream count is always produced when enough nodes remain.
func GeneratePattern(cfg Config, pattern Pattern) (*stream.Set, *core.Analyzer, error) {
	m, err := cfg.validate()
	if err != nil {
		return nil, nil, err
	}
	if pattern == Transpose && cfg.MeshW != cfg.MeshH {
		return nil, nil, fmt.Errorf("workload: transpose needs a square mesh, got %dx%d", cfg.MeshW, cfg.MeshH)
	}
	return draw(m, cfg, pattern)
}
