// Package metrics aggregates simulation measurements against analytical
// delay upper bounds, producing the per-priority-level ratio tables of
// the paper's §5: ratio = (actual average message latency) / (computed
// delay upper bound U), averaged over the streams of each priority
// level. A ratio close to 1 means the bound is tight; the paper reports
// ratios per level for varying numbers of priority levels and streams.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stream"
)

// StreamRatio is the measurement of one stream.
type StreamRatio struct {
	ID        stream.ID
	Priority  int
	U         int // analytical delay upper bound (-1: not found)
	Observed  int
	Mean      float64 // mean observed latency
	Max       int     // max observed latency
	MeanRatio float64 // Mean / U
	MaxRatio  float64 // Max / U
	Exceeded  bool    // Max > U: the bound was violated
}

// LevelRow aggregates one priority level.
type LevelRow struct {
	Priority  int // priority value (larger = more important)
	Streams   int
	Observed  int
	MeanRatio float64 // average of the streams' MeanRatio
	MaxRatio  float64 // average of the streams' MaxRatio
	Worst     float64 // worst (largest) MaxRatio at this level
	Exceeded  int     // streams whose measured max exceeded U
}

// RatioTable is the per-level summary of one experiment.
type RatioTable struct {
	Title     string
	PerStream []StreamRatio
	Rows      []LevelRow // descending priority
}

// Build computes the ratio table for a simulated stream set. us[i] is
// stream i's delay upper bound; streams with U <= 0 or no observations
// are excluded from level aggregates but kept in PerStream.
func Build(title string, set *stream.Set, us []int, res *sim.Result) (*RatioTable, error) {
	if len(us) != set.Len() || len(res.PerStream) != set.Len() {
		return nil, fmt.Errorf("metrics: %d bounds / %d stats for %d streams", len(us), len(res.PerStream), set.Len())
	}
	t := &RatioTable{Title: title}
	byLevel := map[int][]StreamRatio{}
	for i, s := range set.Streams {
		st := res.PerStream[i]
		r := StreamRatio{
			ID:       s.ID,
			Priority: s.Priority,
			U:        us[i],
			Observed: st.Observed,
			Max:      st.MaxLatency,
		}
		if st.Observed > 0 {
			r.Mean = st.Mean()
		}
		if us[i] > 0 && st.Observed > 0 {
			r.MeanRatio = r.Mean / float64(us[i])
			r.MaxRatio = float64(st.MaxLatency) / float64(us[i])
			r.Exceeded = st.MaxLatency > us[i]
			byLevel[s.Priority] = append(byLevel[s.Priority], r)
		}
		t.PerStream = append(t.PerStream, r)
	}
	var levels []int
	for p := range byLevel {
		levels = append(levels, p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	for _, p := range levels {
		rs := byLevel[p]
		row := LevelRow{Priority: p, Streams: len(rs)}
		for _, r := range rs {
			row.Observed += r.Observed
			row.MeanRatio += r.MeanRatio
			row.MaxRatio += r.MaxRatio
			if r.MaxRatio > row.Worst {
				row.Worst = r.MaxRatio
			}
			if r.Exceeded {
				row.Exceeded++
			}
		}
		row.MeanRatio /= float64(len(rs))
		row.MaxRatio /= float64(len(rs))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// TopLevelMeanRatio returns the mean ratio of the highest priority
// level, or NaN when the table is empty.
func (t *RatioTable) TopLevelMeanRatio() float64 {
	if len(t.Rows) == 0 {
		return math.NaN()
	}
	return t.Rows[0].MeanRatio
}

// CSV renders the per-stream measurements as comma-separated values
// with a header row, for spreadsheet or plotting pipelines.
func (t *RatioTable) CSV() string {
	var b strings.Builder
	b.WriteString("stream,priority,U,observed,mean,max,mean_ratio,max_ratio,exceeded\n")
	for _, r := range t.PerStream {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%.3f,%d,%.4f,%.4f,%v\n",
			r.ID, r.Priority, r.U, r.Observed, r.Mean, r.Max, r.MeanRatio, r.MaxRatio, r.Exceeded)
	}
	return b.String()
}

// Format renders the table in the paper's style: one line per priority
// level, highest first.
func (t *RatioTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-10s %8s %10s %12s %12s %10s\n",
		"priority", "streams", "observed", "mean/U", "max/U", "exceeded")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "P = %-6d %8d %10d %12.3f %12.3f %10d\n",
			r.Priority, r.Streams, r.Observed, r.MeanRatio, r.MaxRatio, r.Exceeded)
	}
	return b.String()
}
