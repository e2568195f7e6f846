// Command rtwexplore is the design-space explorer CLI: it sweeps a
// grid of network configurations — topology × routing × virtual
// channels × buffer depth × priority policy — scoring each with the
// paper's feasibility analysis, or synthesises the cheapest
// configuration that admits a whole workload.
//
//	rtwexplore sweep -streams 20 -plevels 4 -json -
//	rtwexplore sweep -workload set.json -validate -csv sweep.csv -svg sweep.svg
//	rtwexplore synth -topos mesh2d-4x4,ring-16 -vcs 1,2,4 -check
//
// The workload is either a stream-set JSON file (-workload) or the
// built-in §5 pool (-streams/-plevels/-genseed). Results are
// byte-identical for every -workers value; see docs/EXPLORER.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/explore"
	"repro/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtwexplore:", err)
		os.Exit(1)
	}
}

const usage = `usage: rtwexplore <sweep|synth> [flags]
  sweep   score every configuration of the grid
  synth   find the cheapest configuration admitting the whole workload
Run rtwexplore <subcommand> -h for the flag list.`

// run is main minus os.Exit, so tests can drive both subcommands.
func run(argv []string, out io.Writer) error {
	if len(argv) == 0 {
		return fmt.Errorf("no subcommand\n%s", usage)
	}
	switch argv[0] {
	case "sweep":
		return runSweep(argv[1:], out)
	case "synth":
		return runSynth(argv[1:], out)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(out, usage)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", argv[0], usage)
	}
}

// common holds the flags shared by both subcommands.
type common struct {
	workloadFile string
	streams      int
	plevels      int
	genseed      int64

	topos    string
	routings string
	vcs      string
	buffers  string
	policies string

	seed    int64
	workers int

	validate bool
	cycles   int

	costNode, costVC, costBuf int

	jsonPath, csvPath, svgPath string
	check                      bool
}

func addCommon(fs *flag.FlagSet) *common {
	var c common
	fs.StringVar(&c.workloadFile, "workload", "", "stream-set JSON file ('-' = stdin); empty: generate the §5 pool")
	fs.IntVar(&c.streams, "streams", 20, "generated §5 pool: stream count")
	fs.IntVar(&c.plevels, "plevels", 4, "generated §5 pool: priority levels")
	fs.Int64Var(&c.genseed, "genseed", 1, "generated §5 pool: workload seed")

	fs.StringVar(&c.topos, "topos", "", "comma-separated topologies (mesh2d-WxH, torus2d-WxH, hypercube-D, ring-N); empty: default grid")
	fs.StringVar(&c.routings, "routings", "", "comma-separated routing policies (canonical, xy, yx); empty: canonical")
	fs.StringVar(&c.vcs, "vcs", "", "comma-separated virtual-channel counts; empty: 1,2,4,8")
	fs.StringVar(&c.buffers, "buffers", "", "comma-separated per-VC buffer depths; empty: 1,2")
	fs.StringVar(&c.policies, "policies", "", "comma-separated priority policies (workload, rate-monotonic, deadline-monotonic); empty: workload")

	fs.Int64Var(&c.seed, "seed", 1, "placement seed; same seed, same results")
	fs.IntVar(&c.workers, "workers", 0, "evaluation workers (0 = GOMAXPROCS); any value gives byte-identical results")

	fs.BoolVar(&c.validate, "validate", false, "cross-validate fully-admitting points in the flit-level event simulator")
	fs.IntVar(&c.cycles, "cycles", 0, "simulated flit times per validation run (0 = 5000)")

	fs.IntVar(&c.costNode, "cost-node", 0, "cost-model weight per node (0 = default 4)")
	fs.IntVar(&c.costVC, "cost-vc", 0, "cost-model weight per link VC (0 = default 2)")
	fs.IntVar(&c.costBuf, "cost-buf", 0, "cost-model weight per buffered flit slot (0 = default 1)")

	fs.StringVar(&c.jsonPath, "json", "", "write the full JSON result to this file ('-' = stdout)")
	fs.StringVar(&c.csvPath, "csv", "", "write a per-point CSV to this file ('-' = stdout)")
	fs.StringVar(&c.svgPath, "svg", "", "write a cost/utilization plot to this file")
	fs.BoolVar(&c.check, "check", false, "exit nonzero unless the verdict is positive (sweep: some point admits everything; synth: a winner exists)")
	return &c
}

func (c *common) workload() (explore.Workload, error) {
	if c.workloadFile == "" {
		return explore.PaperPool(c.streams, c.plevels, c.genseed)
	}
	var r io.Reader = os.Stdin
	name := "stdin"
	if c.workloadFile != "-" {
		f, err := os.Open(c.workloadFile)
		if err != nil {
			return explore.Workload{}, err
		}
		defer f.Close()
		r = f
		name = strings.TrimSuffix(filepath.Base(c.workloadFile), filepath.Ext(c.workloadFile))
	}
	set, err := stream.DecodeSet(r)
	if err != nil {
		return explore.Workload{}, fmt.Errorf("workload %s: %w", c.workloadFile, err)
	}
	return explore.FromSet(name, set), nil
}

func (c *common) space() (explore.Space, error) {
	sp := explore.DefaultSpace()
	if c.topos != "" {
		sp.Topologies = splitList(c.topos)
	}
	if c.routings != "" {
		sp.Routings = splitList(c.routings)
	}
	if c.policies != "" {
		sp.Policies = splitList(c.policies)
	}
	var err error
	if c.vcs != "" {
		if sp.VCs, err = parseInts(c.vcs); err != nil {
			return sp, fmt.Errorf("-vcs: %w", err)
		}
	}
	if c.buffers != "" {
		if sp.Buffers, err = parseInts(c.buffers); err != nil {
			return sp, fmt.Errorf("-buffers: %w", err)
		}
	}
	return sp, nil
}

func (c *common) cost() explore.CostModel {
	m := explore.DefaultCostModel()
	if c.costNode != 0 {
		m.PerNode = c.costNode
	}
	if c.costVC != 0 {
		m.PerVC = c.costVC
	}
	if c.costBuf != 0 {
		m.PerBufferFlit = c.costBuf
	}
	return m
}

func (c *common) eval() explore.EvalConfig {
	return explore.EvalConfig{Validate: c.validate, ValidateCycles: c.cycles}
}

// emit writes one rendered artifact to its destination ('-' = out).
func emit(path string, data []byte, out io.Writer) error {
	if path == "-" {
		_, err := out.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type rendered interface {
	JSON() ([]byte, error)
	CSV() ([]byte, error)
	SVG() string
}

func (c *common) emitAll(r rendered, out io.Writer) error {
	if c.jsonPath != "" {
		b, err := r.JSON()
		if err != nil {
			return err
		}
		if err := emit(c.jsonPath, b, out); err != nil {
			return err
		}
	}
	if c.csvPath != "" {
		b, err := r.CSV()
		if err != nil {
			return err
		}
		if err := emit(c.csvPath, b, out); err != nil {
			return err
		}
	}
	if c.svgPath != "" {
		if err := emit(c.svgPath, []byte(r.SVG()), out); err != nil {
			return err
		}
	}
	return nil
}

func runSweep(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtwexplore sweep", flag.ContinueOnError)
	c := addCommon(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := c.workload()
	if err != nil {
		return err
	}
	sp, err := c.space()
	if err != nil {
		return err
	}
	res, err := explore.Sweep(w, sp, explore.SweepConfig{
		Seed: c.seed, Workers: c.workers, Cost: c.cost(), Eval: c.eval(),
	})
	if err != nil {
		return err
	}
	if err := c.emitAll(res, out); err != nil {
		return err
	}
	if c.jsonPath != "-" && c.csvPath != "-" {
		printSweepSummary(out, res)
	}
	if c.check {
		admitting := 0
		for i := range res.Points {
			if res.Points[i].Admitting {
				admitting++
			}
		}
		if admitting == 0 {
			return fmt.Errorf("check failed: no configuration admits the whole workload")
		}
	}
	return nil
}

func printSweepSummary(out io.Writer, res *explore.SweepResult) {
	find := func(idx int) *explore.PointResult {
		for i := range res.Points {
			if res.Points[i].Index == idx {
				return &res.Points[i]
			}
		}
		return nil
	}
	fmt.Fprintf(out, "workload %s: %d demands, total utilization %.3f\n", res.Workload, res.Demands, res.TotalUtil)
	fmt.Fprintf(out, "swept %d configurations\n", len(res.Points))
	if b := find(res.BestIndex); b != nil {
		fmt.Fprintf(out, "best:  %s admitted %d/%d (util %.3f, cost %d)\n",
			describe(b), b.Admitted, b.Total, b.AdmittedUtil, b.Cost)
	}
	if w := find(res.WorstIndex); w != nil {
		fmt.Fprintf(out, "worst: %s admitted %d/%d (util %.3f, cost %d)\n",
			describe(w), w.Admitted, w.Total, w.AdmittedUtil, w.Cost)
	}
	fmt.Fprintf(out, "best-to-worst admitted-utilization spread: %.3f%%\n", res.SpreadPct)
}

func runSynth(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtwexplore synth", flag.ContinueOnError)
	c := addCommon(fs)
	exhaustive := fs.Int("exhaustive-limit", 0, "evaluate grids up to this size exhaustively (0 = 64)")
	chunk := fs.Int("chunk", 0, "cheapest-first pruning chunk size (0 = 16)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := c.workload()
	if err != nil {
		return err
	}
	sp, err := c.space()
	if err != nil {
		return err
	}
	res, err := explore.Synthesize(w, sp, explore.SynthConfig{
		Seed: c.seed, Workers: c.workers, Cost: c.cost(), Eval: c.eval(),
		ExhaustiveLimit: *exhaustive, ChunkSize: *chunk,
	})
	if err != nil {
		return err
	}
	if err := c.emitAll(res, out); err != nil {
		return err
	}
	if c.jsonPath != "-" && c.csvPath != "-" {
		printSynthSummary(out, res)
	}
	if c.check && res.Winner == nil {
		return fmt.Errorf("check failed: no configuration in the space admits the whole workload")
	}
	return nil
}

func printSynthSummary(out io.Writer, res *explore.SynthResult) {
	fmt.Fprintf(out, "workload %s: %d demands, total utilization %.3f\n", res.Workload, res.Demands, res.TotalUtil)
	mode := "cheapest-first"
	if res.Exhaustive {
		mode = "exhaustive"
	}
	fmt.Fprintf(out, "evaluated %d/%d configurations (%s)\n", res.Evaluated, res.GridPoints, mode)
	if res.Winner != nil {
		fmt.Fprintf(out, "winner: %s at cost %d (admits %d/%d, util %.3f)\n",
			describe(res.Winner), res.Winner.Cost, res.Winner.Admitted, res.Winner.Total, res.Winner.AdmittedUtil)
	} else {
		fmt.Fprintln(out, "winner: none — no evaluated configuration admits the whole workload")
	}
	fmt.Fprintf(out, "frontier: %d points\n", len(res.Frontier))
}

func describe(p *explore.PointResult) string {
	return fmt.Sprintf("%s/%s vcs=%d buffer=%d policy=%s", p.Topology, p.Routing, p.VCs, p.Buffer, p.Policy)
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}
