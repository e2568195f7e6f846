package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hist"
	"repro/internal/stream"
	"repro/internal/topology"
)

// StreamStats accumulates per-stream delivery statistics. Latency
// statistics only cover messages generated at or after the warmup
// cutoff; Generated/Delivered count everything.
type StreamStats struct {
	ID         stream.ID
	Generated  int
	Delivered  int
	Unfinished int // still in flight (or queued) at the end of the run
	Observed   int // deliveries counted in the latency statistics
	SumLatency int64
	MinLatency int
	MaxLatency int
	Misses     int // observed deliveries later than the deadline
	Dropped    int // messages aborted by the DropLate policy
	// DeadlockSuspects counts messages flagged by the deadlock
	// detector (Config.DeadlockThreshold).
	DeadlockSuspects int

	// Stall decomposition: for every cycle one of the stream's in-
	// flight messages spent, why it did or did not make progress.
	ProgressCycles    int // at least one flit advanced
	ArbStallCycles    int // a flit was ready but lost the physical-channel arbitration
	VCStallCycles     int // the header waited for a virtual channel
	BufferStallCycles int // blocked on downstream buffers (hold-and-wait)

	// Latencies is the full latency distribution of the observed
	// deliveries (power-of-two buckets; see package hist).
	Latencies hist.H
}

// Observe records one delivery of the given latency in the latency
// statistics, counting a miss when it exceeds deadline.
func (st *StreamStats) Observe(latency, deadline int) {
	st.Observed++
	st.Latencies.Observe(latency)
	st.SumLatency += int64(latency)
	if st.Observed == 1 || latency < st.MinLatency {
		st.MinLatency = latency
	}
	if latency > st.MaxLatency {
		st.MaxLatency = latency
	}
	if latency > deadline {
		st.Misses++
	}
}

// Mean returns the average observed latency, or NaN with no
// observations.
func (st *StreamStats) Mean() float64 {
	if st.Observed == 0 {
		return math.NaN()
	}
	return float64(st.SumLatency) / float64(st.Observed)
}

// ChannelStats accumulates per-physical-channel activity.
type ChannelStats struct {
	// Flits is the number of flits that crossed the channel. A channel
	// carries at most one flit per cycle, so it is also the number of
	// cycles the channel was busy.
	Flits int
}

// Utilization returns the fraction of cycles the channel carried a
// flit.
func (c ChannelStats) Utilization(cycles int) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(c.Flits) / float64(cycles)
}

// Result is the outcome of one simulation run.
type Result struct {
	Cycles     int
	Warmup     int
	Arbiter    ArbiterKind
	PerStream  []StreamStats
	PerChannel map[topology.Channel]ChannelStats
	Unfinished int // total messages still in flight at the end
	// FirstDeadlockCycle is the cycle of the first deadlock suspicion,
	// or -1 when none (or the detector is off).
	FirstDeadlockCycle int
}

// NewResult returns the empty result of a run of set under cfg (already
// passed through WithDefaults): one zeroed StreamStats per stream.
func NewResult(set *stream.Set, cfg Config) *Result {
	r := &Result{
		Cycles:             cfg.Cycles,
		Warmup:             cfg.Warmup,
		Arbiter:            cfg.Arbiter,
		PerStream:          make([]StreamStats, set.Len()),
		PerChannel:         make(map[topology.Channel]ChannelStats),
		FirstDeadlockCycle: -1,
	}
	for i := range r.PerStream {
		r.PerStream[i].ID = stream.ID(i)
	}
	return r
}

// LevelStats aggregates the streams of one priority level.
type LevelStats struct {
	Priority  int
	Streams   int
	Observed  int
	SumMean   float64 // sum of per-stream mean latencies
	MaxMax    int     // worst max latency at the level
	Misses    int
	Dropped   int
	Latencies hist.H // merged distribution of the level
}

// MeanOfMeans returns the average of the level's per-stream means.
func (ls LevelStats) MeanOfMeans() float64 {
	if ls.Streams == 0 {
		return math.NaN()
	}
	return ls.SumMean / float64(ls.Streams)
}

// ByPriority groups the per-stream statistics by priority level,
// descending (most important first). Streams with no observations are
// counted but contribute nothing to the latency aggregates.
func (r *Result) ByPriority(set *stream.Set) []LevelStats {
	byLevel := map[int]*LevelStats{}
	for i := range r.PerStream {
		st := &r.PerStream[i]
		p := set.Get(stream.ID(i)).Priority
		ls, ok := byLevel[p]
		if !ok {
			ls = &LevelStats{Priority: p}
			byLevel[p] = ls
		}
		ls.Streams++
		ls.Misses += st.Misses
		ls.Dropped += st.Dropped
		if st.Observed > 0 {
			ls.Observed += st.Observed
			ls.SumMean += st.Mean()
			if st.MaxLatency > ls.MaxMax {
				ls.MaxMax = st.MaxLatency
			}
			ls.Latencies.Merge(&st.Latencies)
		}
	}
	var levels []int
	for p := range byLevel {
		levels = append(levels, p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	out := make([]LevelStats, 0, len(levels))
	for _, p := range levels {
		out = append(out, *byLevel[p])
	}
	return out
}

// MaxChannelUtilization returns the highest per-channel utilisation
// observed during the run.
func (r *Result) MaxChannelUtilization() float64 {
	max := 0.0
	//rtwlint:ignore detrand max reduction; the result is the same in any iteration order
	for _, cs := range r.PerChannel {
		if u := cs.Utilization(r.Cycles); u > max {
			max = u
		}
	}
	return max
}

// TotalDelivered sums deliveries over all streams.
func (r *Result) TotalDelivered() int {
	n := 0
	for i := range r.PerStream {
		n += r.PerStream[i].Delivered
	}
	return n
}

// TotalMisses sums deadline misses over all streams.
func (r *Result) TotalMisses() int {
	n := 0
	for i := range r.PerStream {
		n += r.PerStream[i].Misses
	}
	return n
}

// String summarises the run.
func (r *Result) String() string {
	return fmt.Sprintf("sim[%s]: %d cycles, %d delivered, %d misses, %d unfinished",
		r.Arbiter, r.Cycles, r.TotalDelivered(), r.TotalMisses(), r.Unfinished)
}
