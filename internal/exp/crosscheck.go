package exp

import (
	"fmt"
	"strings"

	"repro/internal/stream"
)

// CrossCheckConfig parameterises a cross-check campaign: Trials §5
// table trials (seed Seed + 104729·trial, 200 warm-up flit times, the
// preemptive arbiter).
type CrossCheckConfig struct {
	Trials  int // independent random workloads (default 10)
	Streams int // streams per workload (default 20)
	PLevels int // priority levels (default 4)
	Seed    int64
	Cycles  int // simulated flit times per trial (default 30000)
}

func (c CrossCheckConfig) withDefaults() CrossCheckConfig {
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.Streams == 0 {
		c.Streams = 20
	}
	if c.PLevels == 0 {
		c.PLevels = 4
	}
	if c.Cycles == 0 {
		c.Cycles = 30000
	}
	return c
}

// Violation is one stream whose observed maximum latency exceeded its
// delay upper bound.
type Violation struct {
	Trial      int
	Seed       int64
	Stream     stream.ID
	Priority   int
	U          int
	MaxLatency int
	// SamePriorityOverlaps counts other streams at the same priority
	// whose paths share a channel with the victim: head-of-line
	// blocking on such a shared virtual channel is a delay the
	// analysis does not charge.
	SamePriorityOverlaps int
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("trial %d (seed %d): M%d (priority %d) measured %d > U %d; %d same-priority overlapping streams",
		v.Trial, v.Seed, v.Stream, v.Priority, v.MaxLatency, v.U, v.SamePriorityOverlaps)
}

// CrossCheckReport is the outcome of a campaign.
type CrossCheckReport struct {
	Config     CrossCheckConfig
	Checked    int // streams with a bound and observations
	Violations []Violation
	WorstRatio float64 // max over all checked streams of max-latency/U
}

// Clean reports whether no violations were found.
func (r *CrossCheckReport) Clean() bool { return len(r.Violations) == 0 }

// Genuine counts the violations with no other stream at the victim's
// priority on the victim's own path. Each is a candidate analysis
// defect, not a proven one: same-priority sharing by one of the
// victim's blockers also delays the victim, and this test does not
// look for it (ROADMAP item 3).
func (r *CrossCheckReport) Genuine() int {
	n := 0
	for _, v := range r.Violations {
		if v.SamePriorityOverlaps == 0 {
			n++
		}
	}
	return n
}

// Format renders the campaign summary.
func (r *CrossCheckReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crosscheck: %d trials x %d streams (%d levels), %d flit times each\n",
		r.Config.Trials, r.Config.Streams, r.Config.PLevels, r.Config.Cycles)
	fmt.Fprintf(&b, "checked %d stream-bounds; worst max/U ratio %.3f; %d violations\n",
		r.Checked, r.WorstRatio, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v.String())
	}
	switch genuine := r.Genuine(); {
	case r.Clean():
		b.WriteString("every observed latency within its bound\n")
	case genuine == 0:
		b.WriteString("note: all violations stem from same-priority VC sharing (head-of-line\n" +
			"blocking), which the paper's model does not charge; they vanish with one\n" +
			"VC per contending stream — see EXPERIMENTS.md\n")
	default:
		fmt.Fprintf(&b, "%d of %d violations are genuine: no same-priority stream shares the\n"+
			"victim's path, so head-of-line blocking does not explain them\n", genuine, len(r.Violations))
	}
	return b.String()
}

// CrossCheck validates the delay-upper-bound analysis against the
// flit-level simulator over random workloads: each trial is a table
// trial, and every stream its ratio table marks Exceeded is a
// violation, diagnosed with the number of same-priority streams
// sharing the victim's path. Head-of-line blocking on a shared virtual
// channel is one delay the paper's model does not charge; it does not
// explain every violation (ROADMAP item 3).
func CrossCheck(cfg CrossCheckConfig) (*CrossCheckReport, error) {
	cfg = cfg.withDefaults()
	spec := TableSpec{Streams: cfg.Streams, PLevels: cfg.PLevels, Cycles: cfg.Cycles}.withDefaults()
	rep := &CrossCheckReport{Config: cfg}
	for i := 0; i < cfg.Trials; i++ {
		seed := cfg.Seed + int64(i)*104729
		set, table, err := trial(spec, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: crosscheck trial %d: %w", i, err)
		}
		for _, row := range table.Rows {
			rep.Checked += row.Streams
			if row.Worst > rep.WorstRatio {
				rep.WorstRatio = row.Worst
			}
		}
		for _, r := range table.PerStream {
			if !r.Exceeded {
				continue
			}
			victim := set.Get(r.ID)
			overlaps := 0
			for _, o := range set.Streams {
				if o.ID != victim.ID && o.Priority == victim.Priority && o.Path.Overlaps(victim.Path) {
					overlaps++
				}
			}
			rep.Violations = append(rep.Violations, Violation{
				Trial: i, Seed: seed,
				Stream: r.ID, Priority: r.Priority,
				U: r.U, MaxLatency: r.Max,
				SamePriorityOverlaps: overlaps,
			})
		}
	}
	return rep, nil
}
