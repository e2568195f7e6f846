// Package eventsim is a skip-idle, event-driven counterpart of the
// cycle-accurate wormhole simulator in package sim. It produces
// results byte-identical to the cycle engine — package sim remains the
// oracle, and the differential battery in differential_test.go pins
// the two engines against each other across topologies, arbiters,
// buffer depths and seeds — while skipping the cycles in which nothing
// contended happens.
//
// Two observations make that possible:
//
//  1. Streams whose paths share no physical channel can never
//     interact: no virtual channel, no physical-channel arbitration
//     slot and no buffer is shared, and release times are fixed by the
//     schedule alone. The connected components of that static conflict
//     graph partition both the streams and the links, so each
//     component is simulated independently, to completion, with no
//     cross-component ordering to reproduce. (Config.Tracer is the one
//     feature that observes cross-component ordering, so New rejects
//     it; use the cycle engine for traces.)
//
//  2. Within a component, a message that never blocks follows an exact
//     closed-form "staircase" trajectory (flit f crosses channel i at
//     a fixed offset from the release time), and whether it will block
//     is decidable at release time by intersecting per-channel
//     occupancy windows against the other in-flight messages. While
//     every in-flight message is free-flowing, the component jumps
//     straight from event to event (releases, deliveries, deadline
//     drops); the moment a release would overlap an occupancy window,
//     the component falls back to the exact cycle kernel — a
//     per-component port of package sim's loop — and returns to jump
//     mode only when the component's kernel drains: when every
//     message it holds has retired.
//
// The fallback rule is deliberately conservative: window overlap does
// not always mean a flit-level stall, but free flow is only assumed
// when overlap is impossible, so jump mode never has to approximate
// an arbitration. Everything contended runs through the ported cycle
// kernel, which is why the statistics come out identical rather than
// merely close.
//
// A positive Set.RouterLatency disables jump mode (the staircase forms
// assume single-cycle routers); such runs still benefit from component
// decomposition and idle-gap skipping, but not from analytic flight.
package eventsim

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Simulator runs one event-driven wormhole simulation for a stream
// set. Build with New, run once with Run.
type Simulator struct {
	set   *stream.Set
	cfg   sim.Config
	res   *sim.Result
	comps []*comp
	sched *schedule
}

// New builds an event-driven simulator for the given validated stream
// set. The configuration is interpreted exactly as by sim.New, with
// one restriction: a non-nil Tracer is rejected, because trace events
// interleave across conflict components in an order only the global
// cycle loop can reproduce.
func New(set *stream.Set, cfg sim.Config) (*Simulator, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("eventsim: empty stream set")
	}
	if cfg.Tracer != nil {
		return nil, fmt.Errorf("eventsim: tracing not supported (event order across conflict components is not reproduced); use the cycle engine")
	}
	c, err := cfg.WithDefaults(set.Len())
	if err != nil {
		return nil, err
	}
	s := &Simulator{set: set, cfg: c, res: sim.NewResult(set, c)}
	s.sched = newSchedule(set, c)

	// Priority levels, ascending: index 0 is the lowest (as sim.New).
	prioIdx := make(map[int]int)
	levels := set.PriorityLevels() // descending
	for i, p := range levels {
		prioIdx[p] = len(levels) - 1 - i
	}
	vcsPerLink := len(levels)
	if c.Arbiter == sim.NonPreemptiveFIFO || c.Arbiter == sim.NonPreemptivePriority {
		vcsPerLink = 1
	}

	// Channels in the cycle engine's scan order (sorted by From, To);
	// per-component links keep this relative order so the flit-movement
	// sweep visits winners in the same sequence as the oracle.
	seen := make(map[topology.Channel]bool)
	var chans []topology.Channel
	for _, st := range set.Streams {
		for _, ch := range st.Path.Channels {
			if !seen[ch] {
				seen[ch] = true
				chans = append(chans, ch)
			}
		}
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].From != chans[j].From {
			return chans[i].From < chans[j].From
		}
		return chans[i].To < chans[j].To
	})
	scanOrd := make(map[topology.Channel]int, len(chans))
	for i, ch := range chans {
		scanOrd[ch] = i
	}

	// Conflict components: union streams that share any channel.
	parent := make([]int, set.Len())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	firstUser := make(map[topology.Channel]int)
	for _, st := range set.Streams {
		for _, ch := range st.Path.Channels {
			if u, ok := firstUser[ch]; ok {
				parent[find(int(st.ID))] = find(u)
			} else {
				firstUser[ch] = int(st.ID)
			}
		}
	}
	members := make(map[int][]int)
	var roots []int
	for i := range parent {
		r := find(i)
		if _, ok := members[r]; !ok {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	sort.Ints(roots)

	for _, r := range roots {
		ids := members[r] // ascending: appended in stream order
		s.comps = append(s.comps, newComp(s, ids, scanOrd, prioIdx, vcsPerLink))
	}
	return s, nil
}

// Run simulates every conflict component to completion and merges the
// per-component statistics. Per-stream and per-channel entries never
// overlap between components, so the merge is a disjoint union; only
// the scalar tallies need summing.
func (s *Simulator) Run() *sim.Result {
	for _, c := range s.comps {
		c.run()
		s.res.Unfinished += c.unfinished
		if c.firstDeadlock >= 0 &&
			(s.res.FirstDeadlockCycle < 0 || c.firstDeadlock < s.res.FirstDeadlockCycle) {
			s.res.FirstDeadlockCycle = c.firstDeadlock
		}
	}
	return s.res
}
