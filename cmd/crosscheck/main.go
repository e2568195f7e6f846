// Command crosscheck differentially validates the delay-upper-bound
// analysis against the flit-level simulator over random workloads.
//
// Usage:
//
//	crosscheck [-trials N] [-streams N] [-levels N] [-cycles N] [-seed S]
//
// Every stream's observed maximum latency is compared to its computed
// bound (exp.CrossCheck, over the tables' own trial). The exit status
// is 0 when all bounds hold and 2 when a violation is found with no
// same-priority stream on the victim's path: a candidate analysis
// defect, since sharing by one of the victim's blockers can explain it
// too. Violations with sharing on the victim's path exit 0 but are
// listed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	trials := flag.Int("trials", 10, "independent random workloads")
	streams := flag.Int("streams", 20, "streams per workload")
	levels := flag.Int("levels", 4, "priority levels")
	cycles := flag.Int("cycles", 30000, "simulated flit times per trial")
	seed := flag.Int64("seed", 1, "base seed")
	flag.Parse()

	rep, err := exp.CrossCheck(exp.CrossCheckConfig{
		Trials: *trials, Streams: *streams, PLevels: *levels,
		Cycles: *cycles, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crosscheck: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
	if rep.Genuine() > 0 {
		fmt.Fprintln(os.Stderr, "crosscheck: genuine analysis violation found")
		os.Exit(2)
	}
}
