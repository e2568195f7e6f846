// Package trace records and renders simulator events: message
// releases, virtual-channel acquisitions and releases, and deliveries.
// A Recorder turns the event stream into per-message channel-occupancy
// intervals — the visibility needed to see wormhole blocking (and the
// paper's flit-level preemption) actually happen.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stream"
	"repro/internal/topology"
)

// Kind labels a trace event.
type Kind int

const (
	// Release: a new message instance was generated at its source.
	Release Kind = iota
	// VCAcquire: the message's header acquired a virtual channel.
	VCAcquire
	// VCRelease: the message's tail passed and released the channel.
	VCRelease
	// Deliver: the tail flit reached the destination.
	Deliver
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Release:
		return "release"
	case VCAcquire:
		return "vc-acquire"
	case VCRelease:
		return "vc-release"
	case Deliver:
		return "deliver"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one simulator event.
type Event struct {
	Cycle  int
	Kind   Kind
	Stream stream.ID
	Seq    int              // message instance within the stream
	Link   topology.Channel // meaningful for VCAcquire/VCRelease
	VC     int              // meaningful for VCAcquire/VCRelease
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case VCAcquire, VCRelease:
		return fmt.Sprintf("t=%-6d %-10s M%d#%d %s vc%d", e.Cycle, e.Kind, e.Stream, e.Seq, e.Link, e.VC)
	default:
		return fmt.Sprintf("t=%-6d %-10s M%d#%d", e.Cycle, e.Kind, e.Stream, e.Seq)
	}
}

// Tracer receives simulator events. Implementations must be cheap; the
// simulator calls Event synchronously.
type Tracer interface {
	Event(e Event)
}

// TextSink is a Tracer that writes each event as one line to an
// io.Writer — a live event log for long simulations where keeping every
// event in memory is undesirable. Write errors stop further output.
type TextSink struct {
	W    io.Writer
	fail bool
}

// Event implements Tracer.
func (s *TextSink) Event(e Event) {
	if s.fail || s.W == nil {
		return
	}
	if _, err := fmt.Fprintln(s.W, e.String()); err != nil {
		s.fail = true
	}
}

// Tee fans one event stream out to several tracers.
type Tee []Tracer

// Event implements Tracer.
func (t Tee) Event(e Event) {
	for _, tr := range t {
		if tr != nil {
			tr.Event(e)
		}
	}
}

// Recorder is a Tracer that stores events (optionally capped) and
// derives per-message occupancy intervals.
type Recorder struct {
	Events []Event
	Limit  int // maximum events kept; 0 = unlimited
	drops  int
}

// Event implements Tracer.
func (r *Recorder) Event(e Event) {
	if r.Limit > 0 && len(r.Events) >= r.Limit {
		r.drops++
		return
	}
	r.Events = append(r.Events, e)
}

// Dropped returns how many events exceeded the limit.
func (r *Recorder) Dropped() int { return r.drops }

// MsgKey identifies one message instance.
type MsgKey struct {
	Stream stream.ID
	Seq    int
}

// Interval is one channel-holding interval of a message.
type Interval struct {
	Link       topology.Channel
	VC         int
	From, To   int // [From, To) in cycles; To == -1 while still held
	holdsTotal int
}

// Timeline is the reconstructed life of one message instance.
type Timeline struct {
	Key       MsgKey
	Released  int
	Delivered int // -1 if not delivered within the trace
	Intervals []Interval
}

// Latency returns the delivery latency, or -1 when undelivered.
func (tl Timeline) Latency() int {
	if tl.Delivered < 0 {
		return -1
	}
	return tl.Delivered - tl.Released
}

// Timelines reconstructs every message's timeline from the recorded
// events, sorted by release cycle then stream/seq.
func (r *Recorder) Timelines() []Timeline {
	byKey := map[MsgKey]*Timeline{}
	open := map[MsgKey]map[topology.Channel]int{} // index of open interval
	var order []MsgKey
	for _, e := range r.Events {
		k := MsgKey{Stream: e.Stream, Seq: e.Seq}
		tl, ok := byKey[k]
		if !ok {
			tl = &Timeline{Key: k, Released: e.Cycle, Delivered: -1}
			byKey[k] = tl
			open[k] = map[topology.Channel]int{}
			order = append(order, k)
		}
		switch e.Kind {
		case Release:
			tl.Released = e.Cycle
		case VCAcquire:
			open[k][e.Link] = len(tl.Intervals)
			tl.Intervals = append(tl.Intervals, Interval{Link: e.Link, VC: e.VC, From: e.Cycle, To: -1})
		case VCRelease:
			if idx, held := open[k][e.Link]; held {
				tl.Intervals[idx].To = e.Cycle
				delete(open[k], e.Link)
			}
		case Deliver:
			tl.Delivered = e.Cycle
		}
	}
	out := make([]Timeline, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Released != out[j].Released {
			return out[i].Released < out[j].Released
		}
		if out[i].Key.Stream != out[j].Key.Stream {
			return out[i].Key.Stream < out[j].Key.Stream
		}
		return out[i].Key.Seq < out[j].Key.Seq
	})
	return out
}
