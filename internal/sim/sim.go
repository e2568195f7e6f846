// Package sim is a cycle-accurate, flit-level wormhole-switching
// network simulator. It plays the role of the event simulator the paper
// uses in §5 to compare actual message latencies against the delay
// upper bounds computed by package core.
//
// Model (one simulation cycle = one flit time):
//
//   - Every directed physical channel carries at most one flit per
//     cycle and multiplexes a set of virtual channels (VCs).
//   - Under the paper's priority-handling scheme there is one VC per
//     priority level; a message with priority p may only request the VC
//     of priority p, and the physical channel is arbitrated by
//     priority, so a higher-priority message preempts a lower-priority
//     one flit by flit.
//   - A message of C flits over H hops occupies its path wormhole
//     style: the header acquires a VC on each channel in turn, body
//     flits follow in pipeline, and each VC is held from header
//     acquisition until the tail flit crosses — blocked messages hold
//     their channels (hold-and-wait).
//   - An unloaded message measures exactly L = H + C - 1 cycles from
//     generation to tail delivery, matching the analytical network
//     latency (verified by tests).
//
// Besides the paper's preemptive scheme the simulator implements two
// baselines: classic non-preemptive wormhole switching with a single
// channel per link (exhibiting the priority inversion of Figure 2), and
// Li's scheme in which a message may acquire any free VC numbered at or
// below its priority.
package sim

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ArbiterKind selects the priority-handling scheme of the routers.
type ArbiterKind int

const (
	// Preemptive is the paper's scheme: one VC per priority level,
	// physical channel arbitrated strictly by priority among VCs with a
	// flit ready to advance (flit-level preemption).
	Preemptive ArbiterKind = iota
	// NonPreemptiveFIFO is classic wormhole switching: a single channel
	// per link acquired first-come-first-served and held until the tail
	// passes.
	NonPreemptiveFIFO
	// NonPreemptivePriority acquires the single channel by priority but
	// cannot preempt it — the configuration in which the paper's
	// Figure 2 priority inversion arises.
	NonPreemptivePriority
	// Li is Li & Mutka's scheme: one VC per priority level, but a
	// message may acquire any free VC numbered at or below its own
	// priority; the physical channel is arbitrated by VC number.
	Li
)

// String implements fmt.Stringer.
func (k ArbiterKind) String() string {
	switch k {
	case Preemptive:
		return "preemptive"
	case NonPreemptiveFIFO:
		return "nonpreemptive-fifo"
	case NonPreemptivePriority:
		return "nonpreemptive-priority"
	case Li:
		return "li"
	}
	return fmt.Sprintf("arbiter(%d)", int(k))
}

// Config parameterises a simulation run.
type Config struct {
	// Cycles is the total simulated time in flit times.
	Cycles int
	// Warmup discards deliveries of messages generated before this
	// cycle (the paper omits 200 start-up time units).
	Warmup int
	// Arbiter selects the priority-handling scheme. Default Preemptive.
	Arbiter ArbiterKind
	// BufferDepth is the per-VC input flit buffer. Depth 2 sustains
	// full pipeline throughput (one flit buffered, one in flight);
	// depth 1 halves the body-flit rate and is provided for the buffer
	// ablation. Default 2.
	BufferDepth int
	// StrictPhysicalPriority, when true, uses the paper's literal
	// arbitration rule: VC i obtains bandwidth only if every
	// higher-priority VC is completely free (unoccupied). The default
	// (false) is work-conserving: among VCs with a flit ready to
	// advance, the highest priority wins.
	StrictPhysicalPriority bool
	// Offsets gives each stream's first release time. Nil means all
	// streams release at cycle 0 (the critical instant of the
	// analysis).
	Offsets []int
	// SporadicJitter, when positive, turns the periodic sources
	// sporadic: each inter-release gap is T plus a uniform random
	// delay in [0, SporadicJitter]. Gaps never shrink below T, so the
	// traffic still conforms to the analysis model (T is the MINIMUM
	// inter-generation time) and every bound remains valid.
	SporadicJitter int
	// JitterSeed seeds the sporadic-release randomness (runs stay
	// reproducible).
	JitterSeed int64
	// Tracer, when non-nil, receives message lifecycle events
	// (releases, VC acquisitions/releases, deliveries). See package
	// trace.
	Tracer trace.Tracer
	// DeadlockThreshold, when positive, flags a message as suspected
	// deadlocked once it has held at least one virtual channel without
	// moving a single flit for this many consecutive cycles. Detour
	// routes (package fault) are not dimension-ordered, so cyclic
	// channel-wait can genuinely deadlock a wormhole network; the
	// detector makes the hang visible instead of silently timing out.
	// Note a worm starved by 100%-utilising higher-priority traffic
	// also trips the detector — the flag means "no progress is
	// possible or being granted", which either way needs attention.
	DeadlockThreshold int
	// DropLate aborts any message older than its stream's deadline:
	// its virtual channels are released and its buffered flits
	// discarded. Real-time systems often prefer dropping a stale
	// message over letting it clog the network (the abort is modelled
	// as instantaneous). Dropped messages count as Dropped, not as
	// deadline misses.
	DropLate bool
}

// WithDefaults validates c for a set of n streams and fills in the
// defaults (buffer depth 2). Every engine that consumes a Config calls
// it, so all of them accept and reject exactly the same configurations.
func (c *Config) WithDefaults(n int) (Config, error) {
	out := *c
	if out.Cycles <= 0 {
		return out, fmt.Errorf("sim: cycles %d must be positive", out.Cycles)
	}
	if out.Warmup < 0 || out.Warmup >= out.Cycles {
		return out, fmt.Errorf("sim: warmup %d out of range [0,%d)", out.Warmup, out.Cycles)
	}
	if out.BufferDepth == 0 {
		out.BufferDepth = 2
	}
	if out.BufferDepth < 1 {
		return out, fmt.Errorf("sim: buffer depth %d must be >= 1", out.BufferDepth)
	}
	if out.SporadicJitter < 0 {
		return out, fmt.Errorf("sim: sporadic jitter %d must be >= 0", out.SporadicJitter)
	}
	if out.Offsets != nil && len(out.Offsets) != n {
		return out, fmt.Errorf("sim: %d offsets for %d streams", len(out.Offsets), n)
	}
	for i, o := range out.Offsets {
		if o < 0 {
			return out, fmt.Errorf("sim: offset[%d] = %d must be >= 0", i, o)
		}
	}
	return out, nil
}

// message is one in-flight (or queued) message instance. Retired
// instances (delivered or dropped) are pooled and reissued by the
// kernel, so steady-state traffic allocates nothing.
type message struct {
	s       *stream.Stream
	links   []*link // the link of each path channel, shared per stream
	ords    []int32 // each path link's ordinal, shared per stream
	buf     []int   // backing array of the per-hop counters, recycled
	seq     int     // instance number within the stream
	genTime int     // release time
	crossed []int   // flits that have crossed each path channel
	vcHeld  []int   // VC index held on each path channel, -1 if none
	// lo is the first path index whose VC has not been released yet.
	// VCs are acquired and released in path order, so vcHeld[i] >= 0
	// only on a contiguous range starting at lo — the per-cycle scans
	// skip the fully-crossed prefix through it.
	lo int
	// visible[i] counts the flits that have arrived at channel i's
	// input (crossed channel i-1 at least RouterLatency cycles ago);
	// inflight[i] holds the crossing cycles of flits still inside
	// router i's pipeline. Unused (nil) when RouterLatency is 0.
	visible  []int
	inflight [][]int
	arrival  int64 // kernel-wide arrival stamp for FIFO tie-breaking
	prio     int   // priority level index (0 = lowest)

	// Per-cycle stall-accounting flags, reset by the engine.
	hadCandidate bool
	advanced     bool
	stale        int // consecutive cycles without progress while holding a VC
	flagged      bool
}

func (m *message) hops() int { return len(m.crossed) }

// headerAt returns the path index whose channel the header has not yet
// crossed, or hops() when the header is through. Indices below lo are
// fully crossed, so the scan starts there.
func (m *message) headerAt() int {
	for i := m.lo; i < len(m.crossed); i++ {
		if m.crossed[i] == 0 {
			return i
		}
	}
	return m.hops()
}

// vc is one virtual channel of a link.
type vc struct {
	owner *message
}

// link is one directed physical channel with its virtual channels and
// the headers waiting for a VC assignment. All links of a kernel live
// in one contiguous array in deterministic channel order; the
// per-cycle arbitration state (winning candidate) lives in dense
// per-ordinal arrays on the Kernel, so the cycle loop walks
// cache-friendly memory instead of chasing per-link pointers.
type link struct {
	ch      topology.Channel
	vcs     []vc
	pending []*message // headers waiting to acquire a VC, arrival order
	// flits counts the flits that crossed the channel, one per busy
	// cycle, flushed into Result.PerChannel at the end of the run (a
	// map update per crossed flit is too hot).
	flits int
	// need counts the kernel's messages whose tail has yet to cross
	// the channel (see Kernel.Reserved).
	need int
	// queued marks membership in the simulator's waiting list (links
	// with headers pending a VC), so assignVCs visits only those
	// instead of scanning every link every cycle.
	queued bool
}

type candidate struct {
	m   *message
	idx int // index of this link within m's path
}

func (l *link) removePending(m *message) {
	for i, p := range l.pending {
		if p == m {
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			return
		}
	}
}
