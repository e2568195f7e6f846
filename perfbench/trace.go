package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory and writes them out once, at the end
// of a run. A disabled tracer still times every span (the workloads use
// the returned durations for their own latency figures) but records
// nothing, so untraced runs pay only two clock reads per span.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []spanRecord
	next  int
}

// spanRecord is one finished span. Times are nanoseconds since the
// tracer's start; Parent 0 marks a root span; Op groups the spans of one
// operation (a mutation, a read, a trial, a replication).
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// span is an open span; End closes it.
type span struct {
	t      *tracer
	id     int
	parent int
	op     int
	name   string
	start  time.Time
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span under parent (nil for a root span).
func (t *tracer) start(name string, parent *span, op int) *span {
	s := &span{t: t, op: op, name: name}
	if parent != nil {
		s.parent = parent.id
	}
	if t.on {
		t.mu.Lock()
		t.next++
		s.id = t.next
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if t := s.t; t.on {
		t.mu.Lock()
		t.spans = append(t.spans, spanRecord{
			ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			Start: s.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
		})
		t.mu.Unlock()
	}
	return d
}

// finish computes every span's self time — its duration minus the part
// of its interval that its children cover — and returns the spans in ID
// order.
func (t *tracer) finish() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return t.spans
}

// covered returns how much of [lo, hi) the union of the intervals
// covers. Concurrent children overlap, so the union is taken, not the
// sum.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfMS groups the self times of the named spans, in milliseconds.
func selfMS(spans []spanRecord) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.Self)/1e6)
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []spanRecord) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
