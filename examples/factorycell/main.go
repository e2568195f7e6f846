// Factory cell: a robotic work-cell controller in which an
// emergency-stop channel shares the interconnect with vision frames and
// conveyor telemetry. The example demonstrates the paper's core
// motivation (priority inversion, Figure 2): with classic
// non-preemptive wormhole switching the e-stop message can sit behind a
// blocked vision worm for hundreds of flit times, while the paper's
// flit-level preemptive scheme keeps it at its unloaded network
// latency — and the analysis predicts that latency exactly.
//
// Run with: go run ./examples/factorycell
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
	mesh := topology.NewMesh2D(5, 3)
	router := routing.NewXY(mesh)
	set := stream.NewSet(mesh)
	names := []string{"conveyor-telemetry", "vision-frames", "e-stop"}

	add := func(sx, sy, dx, dy, prio, period, length, deadline int) {
		if _, err := set.Add(router, mesh.ID(sx, sy), mesh.ID(dx, dy), prio, period, length, deadline); err != nil {
			log.Fatal(err)
		}
	}
	// Conveyor telemetry saturates the column the vision worm must
	// enter, so vision frames regularly stall mid-path...
	add(2, 0, 2, 2, 2, 30, 24, 120)
	// ...while the 60-flit vision worm crosses row 0 and then the
	// congested column — when it stalls, it keeps holding row 0.
	add(0, 0, 2, 2, 1, 150, 60, 600)
	// The e-stop is tiny and urgent: one hop on row 0, 25-flit-time
	// deadline.
	add(0, 0, 1, 0, 3, 50, 2, 25)

	// The analysis promises the e-stop its unloaded latency under
	// preemptive switching.
	report, err := core.DetermineFeasibility(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("admission analysis (flit-level preemptive wormhole):")
	for _, v := range report.Verdicts {
		fmt.Printf("  %-20s U=%-4d deadline %-4d feasible=%v\n", names[v.ID], v.U, v.Deadline, v.Feasible)
	}

	// Simulate both switching disciplines. The e-stop first fires at
	// t=5, after the vision worm has acquired row 0.
	offsets := []int{0, 0, 5}
	run := func(kind sim.ArbiterKind) *sim.Result {
		s, err := eventsim.New(set, sim.Config{Cycles: 30000, Warmup: 0, Arbiter: kind, Offsets: offsets})
		if err != nil {
			log.Fatal(err)
		}
		return s.Run()
	}
	non := run(sim.NonPreemptivePriority)
	pre := run(sim.Preemptive)

	fmt.Println("\n30000 flit times, e-stop channel:")
	fmt.Printf("  %-34s max %4d  mean %6.1f  deadline misses %d/%d\n",
		"classic wormhole (non-preemptive):",
		non.PerStream[2].MaxLatency, non.PerStream[2].Mean(), non.PerStream[2].Misses, non.PerStream[2].Observed)
	fmt.Printf("  %-34s max %4d  mean %6.1f  deadline misses %d/%d\n",
		"flit-level preemptive (paper):",
		pre.PerStream[2].MaxLatency, pre.PerStream[2].Mean(), pre.PerStream[2].Misses, pre.PerStream[2].Observed)

	u := report.Verdicts[2].U
	if pre.PerStream[2].MaxLatency > u {
		log.Fatalf("preemptive e-stop latency %d exceeded its bound %d", pre.PerStream[2].MaxLatency, u)
	}
	fmt.Printf("\nthe preemptive maximum (%d) stays within the analytical bound (%d);\n", pre.PerStream[2].MaxLatency, u)
	fmt.Printf("the non-preemptive maximum (%d) shows the Figure-2 priority inversion.\n", non.PerStream[2].MaxLatency)
}
