// Quickstart: build a small real-time stream set on a mesh, test its
// feasibility with the paper's delay-upper-bound algorithm, and confirm
// the bounds against the flit-level wormhole simulator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

func main() {
	// A 6x6 mesh multicomputer with X-Y routing.
	mesh := topology.NewMesh2D(6, 6)
	router := routing.NewXY(mesh)
	set := stream.NewSet(mesh)

	// Three periodic message streams. Larger priority = more important.
	// Add(router, src, dst, priority, period T, length C, deadline D);
	// deadline 0 defaults to the period.
	mustAdd(set, router, mesh.ID(0, 0), mesh.ID(5, 0), 3, 50, 4, 0)   // control
	mustAdd(set, router, mesh.ID(1, 0), mesh.ID(5, 2), 2, 80, 12, 0)  // telemetry
	mustAdd(set, router, mesh.ID(0, 1), mesh.ID(5, 2), 1, 120, 30, 0) // bulk data

	// Step 1: the feasibility test (the paper's Determine-Feasibility).
	report, err := core.DetermineFeasibility(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("analysis:")
	for _, v := range report.Verdicts {
		s := set.Get(v.ID)
		fmt.Printf("  stream %d (priority %d): network latency %d, delay upper bound %d, deadline %d -> feasible=%v\n",
			v.ID, s.Priority, s.Latency, v.U, v.Deadline, v.Feasible)
	}
	fmt.Printf("set feasible: %v\n\n", report.Feasible)

	// Step 2: inspect why — the HP set of the lowest-priority stream.
	analyzer, err := core.NewAnalyzer(set)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := analyzer.HP(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("who can block stream 2? %s\n\n", hp.String())

	// Step 3: simulate 20000 flit times of flit-level preemptive
	// wormhole switching and compare measured latencies to the bounds.
	simulator, err := eventsim.New(set, sim.Config{Cycles: 20000, Warmup: 200})
	if err != nil {
		log.Fatal(err)
	}
	res := simulator.Run()
	fmt.Println("simulation (flit-level preemptive wormhole):")
	for i, st := range res.PerStream {
		fmt.Printf("  stream %d: %d delivered, mean latency %.1f, max %d (bound %d)\n",
			i, st.Observed, st.Mean(), st.MaxLatency, report.Verdicts[i].U)
	}
}

func mustAdd(set *stream.Set, r routing.Router, src, dst topology.NodeID, prio, period, length, deadline int) {
	if _, err := set.Add(r, src, dst, prio, period, length, deadline); err != nil {
		log.Fatal(err)
	}
}
