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
//     is decidable by intersecting per-channel occupancy windows. Such
//     a message is a flight: the component jumps straight from event
//     to event (releases, deliveries, deadline drops) for it. Every
//     other message is stepped cycle by cycle in the component's
//     sim.Kernel — package sim's own cycle kernel over the component's
//     streams.
//
// Flights and kernel messages coexist under one invariant: no link
// that a flight has yet to finish crossing is held, or still needed,
// by a kernel message. A release enters the kernel when its path
// reaches a link the kernel still needs, or when its occupancy window
// meets a flight's at once; a flight enters at the first cycle its
// window meets another flight's. Whatever enters pulls in every flight
// whose unfinished links it reaches, transitively, so the kernel and
// the flights never share a link, VC, buffer or arbitration slot, and
// the kernel steps only the messages that may contend.
//
// The rule is deliberately conservative: a shared link does not always
// mean a flit-level stall, but free flow is only assumed when
// interaction is impossible, so a flight never has to approximate an
// arbitration. Everything else runs through the oracle's own cycle
// kernel, which is why the statistics come out identical rather than
// merely close.
//
// A positive Set.RouterLatency disables flights (the staircase forms
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
		s.comps = append(s.comps, newComp(s, ids))
	}
	return s, nil
}

// Run simulates every conflict component to completion. Components
// write into one Result: their per-stream and per-channel entries never
// overlap, Unfinished sums, and FirstDeadlockCycle keeps the earliest.
func (s *Simulator) Run() *sim.Result {
	for _, c := range s.comps {
		c.run()
	}
	return s.res
}

// KernelCycles returns the cycles Run stepped in a component's cycle
// kernel, summed over components; every other component-cycle was
// flown analytically, skipped idle, or folded whole by the solo path.
// It depends on the stream set and configuration alone, as do
// KernelMessageCycles and SoloComponents.
func (s *Simulator) KernelCycles() int {
	n := 0
	for _, c := range s.comps {
		n += c.steps
	}
	return n
}

// KernelMessageCycles returns the messages the kernels held, summed
// over the cycles they stepped: the message-cycles Run simulated flit
// by flit.
func (s *Simulator) KernelMessageCycles() int {
	n := 0
	for _, c := range s.comps {
		n += c.held
	}
	return n
}

// SoloComponents returns the number of components folded whole by the
// solo path, which build no kernel.
func (s *Simulator) SoloComponents() int {
	n := 0
	for _, c := range s.comps {
		if c.k == nil {
			n++
		}
	}
	return n
}
