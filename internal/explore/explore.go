// Package explore is the design-space explorer: it evaluates one
// workload over the cartesian grid of network configurations —
// topology × routing policy × virtual-channel count × buffer depth ×
// priority-assignment policy — and, inverting the paper's feasibility
// question, synthesises the cheapest configuration that admits the
// whole stream set (the guaranteed-QoS network design problem of
// Murali et al., arXiv 1509.00249).
//
// Each grid point is scored with the paper's own analysis: streams are
// offered highest-priority-first to an admission controller
// (package admit, pinned byte-identical to core.DetermineFeasibility),
// and the point's score is the admitted stream count and admitted
// utilization. Optionally every fully-admitting point is
// cross-validated in the flit-level event simulator (package eventsim)
// with the point's buffer depth: zero deadline misses required,
// connecting the swept buffer-depth axis to the buffering-effects
// literature (arXiv 1606.02942).
//
// Everything is deterministic: the grid is enumerated in a fixed
// lexicographic order (package grid), per-point randomness derives
// from per-point seeds, results are merged in grid order, and the
// emitted JSON is byte-identical for any worker count — pinned by a
// golden file and a -race hammer.
package explore

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/admit"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Demand is one stream's resource demand, detached from any concrete
// network: what the stream needs (period, length, deadline, a relative
// importance) plus where it lived in the workload's origin topology.
type Demand struct {
	Src, Dst int // node IDs in the origin topology
	Priority int // workload priority (1 = least important)
	Period   int
	Length   int
	Deadline int
}

// Workload is the demand set the explorer maps onto every candidate
// configuration. When a candidate topology has exactly OriginNodes
// nodes the original placement is kept verbatim; otherwise sources and
// destinations are re-placed with a deterministic seeded permutation,
// so every configuration sees the same demand sequence.
type Workload struct {
	Name        string
	OriginNodes int
	Demands     []Demand
}

// FromSet captures a stream set as an explorer workload.
func FromSet(name string, set *stream.Set) Workload {
	w := Workload{Name: name, OriginNodes: set.Topology.Nodes()}
	for _, s := range set.Streams {
		w.Demands = append(w.Demands, Demand{
			Src: int(s.Src), Dst: int(s.Dst),
			Priority: s.Priority, Period: s.Period,
			Length: s.Length, Deadline: s.Deadline,
		})
	}
	return w
}

// PaperPool generates the paper's §5 workload pool (uniform traffic on
// the 10×10 mesh, periods inflated to the computed bounds) as an
// explorer workload: the same pool the ratio tables and the load
// harness draw from.
func PaperPool(streams, plevels int, seed int64) (Workload, error) {
	cfg := workload.PaperDefaults(streams, plevels, seed)
	set, _, err := workload.Generate(cfg)
	if err != nil {
		return Workload{}, err
	}
	name := fmt.Sprintf("paper-s%d-p%d-seed%d", streams, plevels, seed)
	return FromSet(name, set), nil
}

// TotalUtil is the workload's aggregate injection utilization
// sum(C_i/T_i), the denominator of every admitted-utilization score.
func (w Workload) TotalUtil() float64 {
	var u float64
	for _, d := range w.Demands {
		u += float64(d.Length) / float64(d.Period)
	}
	return roundUtil(u)
}

// Validate reports the first malformed demand.
func (w Workload) Validate() error {
	if len(w.Demands) == 0 {
		return fmt.Errorf("explore: workload %q has no demands", w.Name)
	}
	if w.OriginNodes < 2 {
		return fmt.Errorf("explore: workload %q origin has %d nodes", w.Name, w.OriginNodes)
	}
	for i, d := range w.Demands {
		if d.Src < 0 || d.Src >= w.OriginNodes || d.Dst < 0 || d.Dst >= w.OriginNodes {
			return fmt.Errorf("explore: demand %d endpoints (%d,%d) outside origin [0,%d)", i, d.Src, d.Dst, w.OriginNodes)
		}
		if d.Src == d.Dst {
			return fmt.Errorf("explore: demand %d source equals destination %d", i, d.Src)
		}
		if d.Period < 1 || d.Length < 1 || d.Deadline < 1 {
			return fmt.Errorf("explore: demand %d has non-positive period/length/deadline", i)
		}
		if d.Priority < 1 {
			return fmt.Errorf("explore: demand %d priority %d", i, d.Priority)
		}
	}
	return nil
}

// place maps the demands onto topo. Same node count: identity
// placement. Different node count: a seeded permutation assigns
// sources round-robin (several streams may share a source on a small
// network) and destinations uniformly, always distinct from the
// source. The result depends only on (w, topo, seed).
func (w Workload) place(topo topology.Topology, seed int64) []admit.Spec {
	n := topo.Nodes()
	specs := make([]admit.Spec, len(w.Demands))
	if n == w.OriginNodes {
		for i, d := range w.Demands {
			specs[i] = admit.Spec{
				Src: topology.NodeID(d.Src), Dst: topology.NodeID(d.Dst),
				Priority: d.Priority, Period: d.Period, Length: d.Length, Deadline: d.Deadline,
			}
		}
		return specs
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	for i, d := range w.Demands {
		src := topology.NodeID(perm[i%n])
		dst := src
		for dst == src {
			dst = topology.NodeID(rng.Intn(n))
		}
		specs[i] = admit.Spec{
			Src: src, Dst: dst,
			Priority: d.Priority, Period: d.Period, Length: d.Length, Deadline: d.Deadline,
		}
	}
	return specs
}

// roundUtil rounds a utilization sum to 1e-9 so JSON output stays
// readable; well above float64 noise, far below any meaningful
// utilization difference.
func roundUtil(u float64) float64 { return math.Round(u*1e9) / 1e9 }
