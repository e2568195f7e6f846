// Command perfbench is the repository benchmark. It drives three
// workloads through the program's public entry points and prints every
// metric by name with its unit, then one JSON result line:
//
//	daemon-churn   loopback HTTP into the in-process rtwormd composition
//	paper-tables   exp.RunTable over the paper's Tables 1-5
//	mc-campaign    an mc.Run Monte-Carlo study on the event engine
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload daemon-churn --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload untraced and then traced, and reports the per-layer metrics
// measured from spans the benchmark records around each call into a
// layer. See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see README.md for what an "op" is on each).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
}

// perLayer are the traced run's metrics. A layer a workload never calls
// reports 0.
var perLayer = []metricDef{
	{"server.persist_p50_ms", "ms"},
	{"server.persist_p99_ms", "ms"},
	{"server.marshal_ms", "ms"},
	{"server.snapshot_bytes", "bytes"},
	{"server.overhead_ms", "ms"},
	{"server.read_overhead_ms", "ms"},
	{"server.restore_ms", "ms"},
	{"server.read_p50_ms", "ms"},
	{"server.read_p99_ms", "ms"},
	{"admit.admit_p50_ms", "ms"},
	{"admit.admit_p99_ms", "ms"},
	{"admit.withdraw_p50_ms", "ms"},
	{"admit.withdraw_p99_ms", "ms"},
	{"admit.report_ms", "ms"},
	{"admit.recomputed_per_op", "count"},
	{"admit.dirty_ratio", "ratio"},
	{"core.extend_ms", "ms"},
	{"core.dependents_ms", "ms"},
	{"core.calu_batch_ms", "ms"},
	{"core.calu_batch_p99_ms", "ms"},
	{"core.new_analyzer_ms", "ms"},
	{"core.calu_ms", "ms"},
	{"core.bounds", "count"},
	{"core.unbounded", "count"},
	{"workload.generate_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.cycles_per_s", "cycles/s"},
	{"sim.delivered", "count"},
	{"sim.misses", "count"},
	{"sim.arb_stall_cycles", "count"},
	{"sim.vc_stall_cycles", "count"},
	{"sim.buffer_stall_cycles", "count"},
	{"eventsim.run_light_ms", "ms"},
	{"eventsim.run_contended_ms", "ms"},
	{"eventsim.cycles_per_s_light", "cycles/s"},
	{"eventsim.cycles_per_s_contended", "cycles/s"},
	{"mc.worker_util", "ratio"},
	{"exp.trial_util", "ratio"},
	{"harness.read_lag_p99_ms", "ms"},
	{"harness.trace_overhead", "ratio"},
}

var workloads = []string{"daemon-churn", "paper-tables", "mc-campaign"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	tiny     bool   // test scale: small inputs, short horizons
	workDir  string // scratch space inside the checkout
	out      io.Writer
	// cold runs one study pass in a fresh process and returns its wall
	// time; tests substitute an in-process pass.
	cold func(workload string, seed int64) (time.Duration, error)
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	e2e               map[string]float64
	layer             map[string]float64
	spans             []spanRecord
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main minus os.Exit. Exit codes: 0 all output checks passed,
// 1 an output check failed (the result line is still printed), 2 the
// benchmark could not run (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	cold := fs.Bool("cold", false, "run one study pass and exit (the cold-start probe behind setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cold {
		if err := coldPass(*wl, *seed, false); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg := config{
		workload: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, workDir: dir, out: stdout, cold: coldProcess,
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles the result line.
func execute(cfg config) (*result, error) {
	runner := map[string]func(config) (*outcome, error){
		"daemon-churn": runDaemonChurn,
		"paper-tables": runPaperTables,
		"mc-campaign":  runMCCampaign,
	}[cfg.workload]
	if runner == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	printEnv(cfg)
	o, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace && len(o.spans) > 0 {
		path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(o.spans), path)
	}
	defs, values := endToEnd, o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layer
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !cfg.trace && !ok {
			o.fail(0, "end-to-end metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail(0, "metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		o.fail(0, "no operations attempted")
		res.Attempted = 1
	}
	errRate := float64(o.failed) / float64(res.Attempted)
	fmt.Fprintf(cfg.out, "%-34s %16.6f %s  (failed %d of %d attempted)\n", "error_rate", errRate, "ratio", o.failed, res.Attempted)
	for _, p := range o.problems {
		fmt.Fprintln(cfg.out, "CHECK FAILED:", p)
	}
	res.Correct = len(o.problems) == 0 && o.failed == 0
	return res, nil
}

// printEnv records the machine and run settings in the output.
func printEnv(cfg config) {
	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.dur.Seconds(), "trace": cfg.trace,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "connections": connections(),
	}
	data, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintln(cfg.out, "env:", string(data))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints one human-readable metric line.
func report(w io.Writer, name string, v float64, unit, note string) {
	fmt.Fprintf(w, "%-34s %16.6f %s", name, v, unit)
	if note != "" {
		fmt.Fprintf(w, "  (%s)", note)
	}
	fmt.Fprintln(w)
}

// reportLayers prints the per-layer metrics a workload measured, sorted.
func reportLayers(w io.Writer, layer map[string]float64) {
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(layer))
	for n := range layer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		report(w, n, layer[n], units[n], "")
	}
}

// coldProcess runs one study pass in a fresh process of this binary and
// returns the wall time from launch to exit: what a researcher pays to
// get a first result from a cold start.
func coldProcess(workload string, seed int64) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--cold", "--workload", workload, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("cold-start pass: %w", err)
	}
	return time.Since(t0), nil
}

// coldPass is the body of a --cold process: one study pass.
func coldPass(workload string, seed int64, tiny bool) error {
	switch workload {
	case "paper-tables":
		_, _, err := tablePass(tableSpecs(seed, tablesScale(tiny)))
		return err
	case "mc-campaign":
		_, _, err := mcPass(mcConfig(mcScale(tiny), false))
		return err
	}
	return fmt.Errorf("no cold pass for workload %q", workload)
}
