// Avionics: an integrated modular avionics workload on a 4x4 mesh
// multicomputer — the class of hard real-time application the paper's
// introduction motivates. Flight-control loops, navigation updates,
// engine monitoring and a maintenance data dump share the wormhole
// interconnect; the host processor must guarantee every control
// deadline before the configuration is accepted.
//
// The example shows the full admission workflow: feasibility testing,
// reading the blocking structure of a rejected configuration, fixing it
// by re-prioritising, and verifying the accepted configuration against
// the flit-level simulator.
//
// Run with: go run ./examples/avionics
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

type flow struct {
	name     string
	src, dst [2]int
	priority int
	period   int // T: sampling period of the loop, flit times
	length   int // C: message size, flits
	deadline int // D: end-to-end latency budget
}

func buildSet(mesh *topology.Mesh2D, flows []flow) (*stream.Set, error) {
	router := routing.NewXY(mesh)
	set := stream.NewSet(mesh)
	for _, f := range flows {
		_, err := set.Add(router,
			mesh.ID(f.src[0], f.src[1]), mesh.ID(f.dst[0], f.dst[1]),
			f.priority, f.period, f.length, f.deadline)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return set, nil
}

func main() {
	mesh := topology.NewMesh2D(4, 4)

	// First attempt: the integrator assigned the maintenance dump a
	// priority above the pitch-control loop ("it is only 2% of the
	// bandwidth"). Column 1 carries both.
	flows := []flow{
		{"pitch-control", [2]int{1, 0}, [2]int{1, 3}, 2, 40, 4, 20},
		{"yaw-control", [2]int{2, 0}, [2]int{2, 3}, 4, 40, 4, 20},
		{"nav-update", [2]int{0, 1}, [2]int{3, 1}, 3, 120, 16, 120},
		{"engine-monitor", [2]int{0, 2}, [2]int{3, 2}, 3, 90, 10, 90},
		{"maintenance-dump", [2]int{1, 0}, [2]int{1, 3}, 5, 200, 120, 400},
	}
	names := []string{"pitch-control", "yaw-control", "nav-update", "engine-monitor", "maintenance-dump"}

	set, err := buildSet(mesh, flows)
	if err != nil {
		log.Fatal(err)
	}
	report, err := core.DetermineFeasibility(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("attempt 1: maintenance dump prioritised above pitch control")
	printVerdicts(set, report, names)

	if report.Feasible {
		log.Fatal("expected the first configuration to be rejected")
	}
	// Diagnose: whose interference breaks pitch-control?
	analyzer, err := core.NewAnalyzer(set)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := analyzer.HP(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nblocking structure of pitch-control: %s\n", hp.String())
	fmt.Println("-> the 120-flit maintenance worm outranks the 20-flit-deadline control loop")

	// Fix: control loops get the top priorities; the dump is demoted to
	// background.
	flows[0].priority = 5 // pitch-control
	flows[4].priority = 1 // maintenance-dump
	set, err = buildSet(mesh, flows)
	if err != nil {
		log.Fatal(err)
	}
	report, err = core.DetermineFeasibility(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nattempt 2: control loops on top, dump demoted to background")
	printVerdicts(set, report, names)
	if !report.Feasible {
		log.Fatal("expected the fixed configuration to be accepted")
	}

	// Verify the accepted configuration end to end.
	simulator, err := eventsim.New(set, sim.Config{Cycles: 40000, Warmup: 200})
	if err != nil {
		log.Fatal(err)
	}
	res := simulator.Run()
	fmt.Println("\n40000 flit times of flit-level preemptive simulation:")
	worst := 0.0
	for i, st := range res.PerStream {
		u := report.Verdicts[i].U
		ratio := float64(st.MaxLatency) / float64(u)
		if ratio > worst {
			worst = ratio
		}
		fmt.Printf("  %-17s mean %6.1f  max %4d  bound %4d  deadline %4d  misses %d\n",
			names[i], st.Mean(), st.MaxLatency, u, set.Get(stream.ID(i)).Deadline, st.Misses)
	}
	fmt.Printf("worst max/bound ratio: %.2f — every flow inside its guarantee\n", worst)
}

func printVerdicts(set *stream.Set, report *core.Report, names []string) {
	for _, v := range report.Verdicts {
		u := fmt.Sprintf("%d", v.U)
		if v.U < 0 {
			u = "unbounded"
		}
		status := "ok"
		if !v.Feasible {
			status = "REJECTED"
		}
		fmt.Printf("  %-17s priority %d  U=%-9s deadline %-4d %s\n",
			names[v.ID], set.Get(v.ID).Priority, u, v.Deadline, status)
	}
	fmt.Printf("  feasible: %v\n", report.Feasible)
}
