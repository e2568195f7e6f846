// Command rtwmc is the Monte-Carlo replication runner: it simulates N
// workload seeds under each of M network configurations and reports
// per-configuration distribution summaries (mean ± 95% CI, p50/p95,
// range) for miss ratio and latency.
//
// Usage:
//
//	rtwmc [-topology mesh2d-10x10] [-streams N] [-plevels P]
//	      [-seeds N] [-baseseed S] [-configs arb[:buffer],...]
//	      [-cycles N] [-warmup N] [-workers N] [-check] [-json | -csv]
//
// Each entry of -configs is an arbiter name (preemptive,
// nonpreemptive-fifo, nonpreemptive-priority, li) with an optional
// :buffer depth suffix; every entry becomes one study point sharing
// the topology and traffic shape. Replications simulate on the event
// engine; -check re-runs each on the cycle-accurate oracle. Results
// are byte-identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/mc"
	"repro/internal/sim"
)

func main() {
	topo := flag.String("topology", "mesh2d-10x10", "topology for every point (mesh2d-WxH, torus2d-WxH, hypercube-D, ring-N)")
	streams := flag.Int("streams", 20, "generated streams per workload")
	plevels := flag.Int("plevels", 4, "generated priority levels")
	seeds := flag.Int("seeds", 20, "replications (workload seeds) per configuration")
	baseSeed := flag.Int64("baseseed", 1, "base seed; replication seeds derive from it deterministically")
	configs := flag.String("configs", "preemptive", "comma-separated points: arbiter[:buffer] (e.g. preemptive:2,li:2)")
	cycles := flag.Int("cycles", 30000, "simulated flit times per replication")
	warmup := flag.Int("warmup", 200, "start-up flit times omitted from statistics")
	workers := flag.Int("workers", 0, "parallel replications (0 = GOMAXPROCS); never affects results")
	check := flag.Bool("check", false, "cross-check every replication against the cycle-accurate oracle")
	asJSON := flag.Bool("json", false, "emit the full result (summaries + replications) as JSON")
	asCSV := flag.Bool("csv", false, "emit one CSV row per replication")
	flag.Parse()

	if err := run(*topo, *streams, *plevels, *seeds, *baseSeed, *configs,
		*cycles, *warmup, *workers, *check, *asJSON, *asCSV); err != nil {
		fmt.Fprintf(os.Stderr, "rtwmc: %v\n", err)
		os.Exit(1)
	}
}

func run(topo string, streams, plevels, seeds int, baseSeed int64, configs string,
	cycles, warmup, workers int, check, asJSON, asCSV bool) error {
	if asJSON && asCSV {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	points, err := parseConfigs(configs, topo, streams, plevels, cycles, warmup)
	if err != nil {
		return err
	}
	res, err := mc.Run(mc.Config{
		Seeds: seeds, BaseSeed: baseSeed, Workers: workers, Check: check, Points: points,
	})
	if err != nil {
		return err
	}
	switch {
	case asJSON:
		return res.JSON(os.Stdout)
	case asCSV:
		return res.CSV(os.Stdout)
	default:
		return res.Table(os.Stdout)
	}
}

// parseConfigs expands "arb[:buffer],..." into study points sharing
// the topology and traffic shape.
func parseConfigs(spec, topo string, streams, plevels, cycles, warmup int) ([]mc.PointConfig, error) {
	var points []mc.PointConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, bufSpec, hasBuf := strings.Cut(entry, ":")
		arb, err := parseArbiter(name)
		if err != nil {
			return nil, err
		}
		buffer := 2
		if hasBuf {
			buffer, err = strconv.Atoi(bufSpec)
			if err != nil || buffer < 1 {
				return nil, fmt.Errorf("bad buffer depth in %q", entry)
			}
		}
		points = append(points, mc.PointConfig{
			Topology: topo, Streams: streams, PLevels: plevels,
			Arbiter: arb, Buffer: buffer, Cycles: cycles, Warmup: warmup,
		})
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("empty -configs")
	}
	return points, nil
}

func parseArbiter(s string) (sim.ArbiterKind, error) {
	for _, k := range []sim.ArbiterKind{sim.Preemptive, sim.NonPreemptiveFIFO, sim.NonPreemptivePriority, sim.Li} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown arbiter %q", s)
}
