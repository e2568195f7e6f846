package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// WorkedExampleSet builds the five-stream example of §4.4 on a 10×10
// mesh with X-Y routing.
func WorkedExampleSet() (*stream.Set, error) {
	m := topology.NewMesh2D(10, 10)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	type row struct{ sx, sy, dx, dy, p, t, c, d int }
	rows := []row{
		{7, 3, 7, 7, 5, 15, 4, 15},
		{1, 1, 5, 4, 4, 10, 2, 10},
		{2, 1, 7, 5, 3, 40, 4, 40},
		{4, 1, 8, 5, 2, 45, 9, 45},
		{6, 1, 9, 3, 1, 50, 6, 50},
	}
	for _, x := range rows {
		if _, err := set.Add(r, m.ID(x.sx, x.sy), m.ID(x.dx, x.dy), x.p, x.t, x.c, x.d); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// FigureReport is a rendered figure reproduction: a text body plus the
// headline quantities a test or bench can assert on.
type FigureReport struct {
	Title  string
	Body   string
	Values map[string]int
}

// Figure4Diagram builds the initial timing diagram of Figure 4: three
// direct blockers (T=10/15/13, C=2/3/4) over a 30-slot horizon.
func Figure4Diagram() (*core.Diagram, error) {
	return core.NewDiagram([]core.Element{
		{ID: 1, Priority: 4, Period: 10, Length: 2, Mode: core.Direct},
		{ID: 2, Priority: 3, Period: 15, Length: 3, Mode: core.Direct},
		{ID: 3, Priority: 2, Period: 13, Length: 4, Mode: core.Direct},
	}, 30)
}

// Figure6Diagram builds the modified timing diagram of Figure 6 (the
// blocking chain M1 -> M2 -> M3 -> M4).
func Figure6Diagram() (*core.Diagram, error) {
	d, err := core.NewDiagram([]core.Element{
		{ID: 1, Priority: 4, Period: 10, Length: 2, Mode: core.Indirect, Via: []stream.ID{2}},
		{ID: 2, Priority: 3, Period: 15, Length: 3, Mode: core.Indirect, Via: []stream.ID{3}},
		{ID: 3, Priority: 2, Period: 13, Length: 4, Mode: core.Direct},
	}, 30)
	if err != nil {
		return nil, err
	}
	d.Modify()
	return d, nil
}

// WorkedExampleDiagrams builds the initial (Figure 7) and final
// (Figure 9) timing diagrams of HP_4 from the §4.4 example.
func WorkedExampleDiagrams() (initial, final *core.Diagram, err error) {
	set, err := WorkedExampleSet()
	if err != nil {
		return nil, nil, err
	}
	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, nil, err
	}
	if initial, err = a.InitialDiagram(4, 50); err != nil {
		return nil, nil, err
	}
	if final, err = a.Diagram(4, 50); err != nil {
		return nil, nil, err
	}
	return initial, final, nil
}

// Figure4 reproduces the direct-blocking U calculation of Figure 4:
// three direct blockers (T=10/15/13, C=2/3/4) and a stream of network
// latency 6, whose bound is 26.
func Figure4() (*FigureReport, error) {
	d, err := Figure4Diagram()
	if err != nil {
		return nil, err
	}
	u := d.DelayUpperBound(6)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: U calculation for a direct blocking (HP = {M1, M2, M3})\n")
	b.WriteString(d.Render(0))
	fmt.Fprintf(&b, "network latency of M4 = 6 -> U = %d (paper: 26)\n", u)
	return &FigureReport{
		Title:  "Figure 4",
		Body:   b.String(),
		Values: map[string]int{"U": u},
	}, nil
}

// Figure6 reproduces the indirect-blocking refinement of Figures 5/6:
// the blocking chain M1 -> M2 -> M3 -> M4 removes M1's second and third
// instances and reduces the bound to 22.
func Figure6() (*FigureReport, error) {
	d, err := Figure6Diagram()
	if err != nil {
		return nil, err
	}
	u := d.DelayUpperBound(6)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: U calculation for an indirect blocking (BDG: M1->M2->M3->M4)\n")
	b.WriteString(d.Render(0))
	fmt.Fprintf(&b, "network latency of M4 = 6 -> U = %d (paper: 22)\n", u)
	return &FigureReport{
		Title:  "Figure 6",
		Body:   b.String(),
		Values: map[string]int{"U": u},
	}, nil
}

// WorkedExample reproduces the full §4.4 pipeline: HP sets (Figure 3's
// construction applied to the example), the blocking dependency graph
// of HP_4 (Figure 8), the initial timing diagram of HP_4 (Figure 7, 7
// free slots) and the final diagram after Modify_Diagram (Figure 9,
// U_4 = 33), plus every stream's delay upper bound.
func WorkedExample() (*FigureReport, error) {
	set, err := WorkedExampleSet()
	if err != nil {
		return nil, err
	}
	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Worked example (paper §4.4) on a 10x10 mesh, X-Y routing\n\nHP sets:\n")
	for i := 0; i < set.Len(); i++ {
		hp, err := a.HP(stream.ID(i))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %s\n", hp.String())
	}
	g, err := a.BDG(4)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nFigure 8 — %s\n", g.String())

	init, err := a.InitialDiagram(4, 50)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nFigure 7 — initial timing diagram of HP_4 (%d free slots; L_4 = 10, so the deadline cannot be guaranteed yet):\n", init.FreeSlots(50))
	b.WriteString(init.Render(0))

	final, err := a.Diagram(4, 50)
	if err != nil {
		return nil, err
	}
	values := map[string]int{"freeInitial": init.FreeSlots(50)}
	fmt.Fprintf(&b, "\nFigure 9 — final timing diagram of HP_4 (after Modify_Diagram):\n")
	b.WriteString(final.Render(0))

	b.WriteString("\nDelay upper bounds:\n")
	for i := 0; i < set.Len(); i++ {
		u, err := a.CalU(stream.ID(i))
		if err != nil {
			return nil, err
		}
		values[fmt.Sprintf("U%d", i)] = u
		fmt.Fprintf(&b, "  U_%d = %d (D_%d = %d)\n", i, u, i, set.Get(stream.ID(i)).Deadline)
	}
	b.WriteString("paper: U = (7, 8, 26, -, 33); U_3 differs because the printed HP_3 omits M2/M0 (see EXPERIMENTS.md)\n")
	return &FigureReport{Title: "Worked example §4.4", Body: b.String(), Values: values}, nil
}

// Figure2 demonstrates the priority-inversion problem of Figure 2: the
// same three-stream workload simulated with classic non-preemptive
// wormhole switching and with the paper's flit-level preemptive scheme.
// The high-priority stream's worst latency explodes without preemption
// and stays at its unloaded network latency with it.
func Figure2(cycles int) (*FigureReport, error) {
	if cycles <= 0 {
		cycles = 10000
	}
	m := topology.NewMesh2D(4, 2)
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	add := func(sx, sy, dx, dy, p, t, c, d int) error {
		_, err := set.Add(r, m.ID(sx, sy), m.ID(dx, dy), p, t, c, d)
		return err
	}
	// S saturates the vertical channel; L's long worm blocks behind S
	// while holding the row channel that H needs (see Figure 2: the
	// blocked lower-priority message permanently blocks message B).
	if err := add(2, 0, 2, 1, 2, 20, 18, 100); err != nil {
		return nil, err
	}
	if err := add(0, 0, 2, 1, 1, 60, 10, 200); err != nil {
		return nil, err
	}
	if err := add(0, 0, 1, 0, 3, 10, 2, 50); err != nil {
		return nil, err
	}
	offsets := []int{0, 0, 5}

	run := func(kind sim.ArbiterKind) (*sim.Result, error) {
		s, err := eventsim.New(set, sim.Config{Cycles: cycles, Arbiter: kind, Offsets: offsets})
		if err != nil {
			return nil, err
		}
		return s.Run(), nil
	}
	non, err := run(sim.NonPreemptivePriority)
	if err != nil {
		return nil, err
	}
	pre, err := run(sim.Preemptive)
	if err != nil {
		return nil, err
	}
	hiL := set.Get(2).Latency
	var b strings.Builder
	b.WriteString("Figure 2: priority inversion in non-preemptive wormhole switching\n")
	fmt.Fprintf(&b, "high-priority stream H: %d hops, %d flits, unloaded latency %d\n",
		set.Get(2).Path.Hops(), set.Get(2).Length, hiL)
	fmt.Fprintf(&b, "  non-preemptive (classic wormhole): max latency %d, mean %.1f, deadline misses %d\n",
		non.PerStream[2].MaxLatency, non.PerStream[2].Mean(), non.PerStream[2].Misses)
	fmt.Fprintf(&b, "  flit-level preemptive (paper):     max latency %d, mean %.1f, deadline misses %d\n",
		pre.PerStream[2].MaxLatency, pre.PerStream[2].Mean(), pre.PerStream[2].Misses)
	return &FigureReport{
		Title: "Figure 2",
		Body:  b.String(),
		Values: map[string]int{
			"nonpreemptiveMax": non.PerStream[2].MaxLatency,
			"preemptiveMax":    pre.PerStream[2].MaxLatency,
			"unloaded":         hiL,
		},
	}, nil
}
