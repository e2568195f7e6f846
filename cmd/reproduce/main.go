// Command reproduce regenerates the paper's entire evaluation in one
// run and writes the artifacts into a directory:
//
//	reproduce -out out/ [-trials 3] [-cycles 30000] [-quick]
//
// Artifacts:
//
//	out/tables.txt       Tables 1-5 (ratio actual/U per priority level)
//	out/figures.txt      Figure 2 demo, Figures 4/6, the §4.4 worked example
//	out/figure*.svg      timing diagrams as SVG
//	out/rule.txt         the |M|/4 priority-level sweeps
//	out/crosscheck.txt   differential validation of analysis vs simulator
//	out/report.txt       one-page summary with the headline comparisons
//	out/report.json      the same summary, machine readable
//
// -quick reduces trial counts and simulated time for a fast smoke run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/viz"
)

func main() {
	out := flag.String("out", "out", "output directory")
	trials := flag.Int("trials", 3, "trials per table")
	cycles := flag.Int("cycles", 30000, "simulated flit times per trial")
	quick := flag.Bool("quick", false, "fast smoke run (fewer trials, shorter simulations)")
	flag.Parse()

	if *quick {
		*trials = 1
		*cycles = 10000
	}
	if err := run(*out, *trials, *cycles); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
}

func run(dir string, trials, cycles int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var summary strings.Builder
	summary.WriteString("Reproduction summary — A Real-Time Communication Method for Wormhole Switching Networks (ICPP 1998)\n\n")

	write := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	// Worked example + figures.
	var figs strings.Builder
	worked, err := exp.WorkedExample()
	if err != nil {
		return err
	}
	figs.WriteString(worked.Body + "\n")
	fig2, err := exp.Figure2(cycles)
	if err != nil {
		return err
	}
	figs.WriteString(fig2.Body + "\n")
	fig4, err := exp.Figure4()
	if err != nil {
		return err
	}
	figs.WriteString(fig4.Body + "\n")
	fig6, err := exp.Figure6()
	if err != nil {
		return err
	}
	figs.WriteString(fig6.Body)
	if err := write("figures.txt", figs.String()); err != nil {
		return err
	}
	fmt.Fprintf(&summary, "worked example: U = (%d, %d, %d, %d, %d); paper (7, 8, 26, -, 33)\n",
		worked.Values["U0"], worked.Values["U1"], worked.Values["U2"], worked.Values["U3"], worked.Values["U4"])
	fmt.Fprintf(&summary, "figure 4: U = %d (paper 26); figure 6: U = %d (paper 22)\n",
		fig4.Values["U"], fig6.Values["U"])
	fmt.Fprintf(&summary, "figure 2 priority inversion: non-preemptive max %d vs preemptive max %d (unloaded %d)\n\n",
		fig2.Values["nonpreemptiveMax"], fig2.Values["preemptiveMax"], fig2.Values["unloaded"])

	// SVG diagrams.
	d4, err := exp.Figure4Diagram()
	if err != nil {
		return err
	}
	d6, err := exp.Figure6Diagram()
	if err != nil {
		return err
	}
	initial, final, err := exp.WorkedExampleDiagrams()
	if err != nil {
		return err
	}
	// Listed in a fixed order, so the "wrote" lines print the same on
	// every run.
	svgs := []struct{ name, svg string }{
		{"figure4.svg", viz.TimingDiagramSVG(d4, "Figure 4 — direct blocking (U = 26)", 0)},
		{"figure6.svg", viz.TimingDiagramSVG(d6, "Figure 6 — indirect blocking (U = 22)", 0)},
		{"figure7.svg", viz.TimingDiagramSVG(initial, "Figure 7 — initial HP_4 diagram", 0)},
		{"figure9.svg", viz.TimingDiagramSVG(final, "Figure 9 — final HP_4 diagram (U_4 = 33)", 0)},
	}
	for _, f := range svgs {
		if err := write(f.name, f.svg); err != nil {
			return err
		}
	}

	// Tables 1-5.
	var tables strings.Builder
	var tableTops []float64
	for n := 1; n <= 5; n++ {
		spec, err := exp.PaperTable(n)
		if err != nil {
			return err
		}
		spec.Trials = trials
		spec.Cycles = cycles
		res, err := exp.RunTable(spec)
		if err != nil {
			return err
		}
		tables.WriteString(res.Format() + "\n")
		tableTops = append(tableTops, res.TopRatio())
		fmt.Fprintf(&summary, "table %d: top-level mean ratio %.3f, bottom %.3f\n", n, res.TopRatio(), res.BottomRatio())
	}
	if err := write("tables.txt", tables.String()); err != nil {
		return err
	}
	summary.WriteString("\n")

	// The |M|/4 rule.
	var rule strings.Builder
	for _, streams := range []int{20, 60} {
		maxLevels := streams/4 + 3
		sweep, err := exp.RunRuleSweep(streams, 0.9, maxLevels, 42, cycles)
		if err != nil {
			return err
		}
		rule.WriteString(sweep.Format() + "\n")
		fmt.Fprintf(&summary, "rule sweep |M|=%d: 0.9 first crossed at %d levels (paper: |M|/4 = %d suffices)\n",
			streams, sweep.MinLevels, streams/4)
	}
	if err := write("rule.txt", rule.String()); err != nil {
		return err
	}
	summary.WriteString("\n")

	// Differential validation.
	cc, err := exp.CrossCheck(exp.CrossCheckConfig{Trials: trials * 3, Cycles: cycles, Seed: 7})
	if err != nil {
		return err
	}
	if err := write("crosscheck.txt", cc.Format()); err != nil {
		return err
	}
	fmt.Fprintf(&summary, "crosscheck: %d bounds checked, %d violations (all same-priority VC sharing: %v)\n",
		cc.Checked, len(cc.Violations), cc.Genuine() == 0)

	if err := write("report.txt", summary.String()); err != nil {
		return err
	}
	// Machine-readable summary alongside the text.
	js, err := json.MarshalIndent(machineSummary{
		Paper: "A Real-Time Communication Method for Wormhole Switching Networks (ICPP 1998)",
		WorkedExampleU: []int{
			worked.Values["U0"], worked.Values["U1"], worked.Values["U2"],
			worked.Values["U3"], worked.Values["U4"],
		},
		Figure4U:         fig4.Values["U"],
		Figure6U:         fig6.Values["U"],
		Fig2Nonpreempt:   fig2.Values["nonpreemptiveMax"],
		Fig2Preempt:      fig2.Values["preemptiveMax"],
		TableTopRatios:   tableTops,
		CrosscheckChecks: cc.Checked,
		CrosscheckViol:   len(cc.Violations),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := write("report.json", string(js)+"\n"); err != nil {
		return err
	}
	fmt.Println("\n" + summary.String())
	return nil
}

// machineSummary is the JSON shape of out/report.json.
type machineSummary struct {
	Paper            string    `json:"paper"`
	WorkedExampleU   []int     `json:"workedExampleU"`
	Figure4U         int       `json:"figure4U"`
	Figure6U         int       `json:"figure6U"`
	Fig2Nonpreempt   int       `json:"figure2NonpreemptiveMax"`
	Fig2Preempt      int       `json:"figure2PreemptiveMax"`
	TableTopRatios   []float64 `json:"tableTopRatios"`
	CrosscheckChecks int       `json:"crosscheckChecked"`
	CrosscheckViol   int       `json:"crosscheckViolations"`
}
