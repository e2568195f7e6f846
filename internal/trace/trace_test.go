package trace

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func sampleEvents() []Event {
	ch1 := topology.Channel{From: 0, To: 1}
	ch2 := topology.Channel{From: 1, To: 2}
	return []Event{
		{Cycle: 0, Kind: Release, Stream: 0, Seq: 0},
		{Cycle: 0, Kind: VCAcquire, Stream: 0, Seq: 0, Link: ch1, VC: 1},
		{Cycle: 1, Kind: VCAcquire, Stream: 0, Seq: 0, Link: ch2, VC: 1},
		{Cycle: 3, Kind: VCRelease, Stream: 0, Seq: 0, Link: ch1, VC: 1},
		{Cycle: 4, Kind: VCRelease, Stream: 0, Seq: 0, Link: ch2, VC: 1},
		{Cycle: 4, Kind: Deliver, Stream: 0, Seq: 0},
		{Cycle: 5, Kind: Release, Stream: 1, Seq: 0},
		{Cycle: 5, Kind: VCAcquire, Stream: 1, Seq: 0, Link: ch1, VC: 0},
	}
}

func TestRecorderTimelines(t *testing.T) {
	r := &Recorder{}
	for _, e := range sampleEvents() {
		r.Event(e)
	}
	tls := r.Timelines()
	if len(tls) != 2 {
		t.Fatalf("%d timelines, want 2", len(tls))
	}
	m0 := tls[0]
	if m0.Key != (MsgKey{Stream: 0, Seq: 0}) {
		t.Fatalf("first timeline key %+v", m0.Key)
	}
	if m0.Released != 0 || m0.Delivered != 4 || m0.Latency() != 4 {
		t.Fatalf("m0 timing: %+v", m0)
	}
	if len(m0.Intervals) != 2 {
		t.Fatalf("m0 intervals: %+v", m0.Intervals)
	}
	if m0.Intervals[0].From != 0 || m0.Intervals[0].To != 3 {
		t.Fatalf("interval 0: %+v", m0.Intervals[0])
	}
	// The second message is still holding its channel.
	m1 := tls[1]
	if m1.Delivered != -1 || m1.Latency() != -1 {
		t.Fatalf("m1 should be undelivered: %+v", m1)
	}
	if m1.Intervals[0].To != -1 {
		t.Fatalf("m1 interval should be open: %+v", m1.Intervals[0])
	}
}

func TestRecorderLimit(t *testing.T) {
	r := &Recorder{Limit: 3}
	for _, e := range sampleEvents() {
		r.Event(e)
	}
	if len(r.Events) != 3 {
		t.Fatalf("kept %d events", len(r.Events))
	}
	if r.Dropped() != len(sampleEvents())-3 {
		t.Fatalf("dropped %d", r.Dropped())
	}
}

func TestEventAndKindStrings(t *testing.T) {
	es := sampleEvents()
	if !strings.Contains(es[1].String(), "vc-acquire") || !strings.Contains(es[1].String(), "0->1") {
		t.Fatalf("event string: %q", es[1].String())
	}
	if !strings.Contains(es[0].String(), "release") {
		t.Fatalf("event string: %q", es[0].String())
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestTextSink(t *testing.T) {
	var buf strings.Builder
	s := &TextSink{W: &buf}
	for _, e := range sampleEvents() {
		s.Event(e)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("lines: %d", len(lines))
	}
	if !strings.Contains(lines[1], "vc-acquire") {
		t.Fatalf("line: %q", lines[1])
	}
	// Nil writer and write failure are safe.
	(&TextSink{}).Event(sampleEvents()[0])
	fw := &TextSink{W: failWriter{}}
	fw.Event(sampleEvents()[0])
	fw.Event(sampleEvents()[1]) // no panic after failure
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "fail" }

func TestTee(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	tee := Tee{a, nil, b}
	for _, e := range sampleEvents() {
		tee.Event(e)
	}
	if len(a.Events) != len(sampleEvents()) || len(b.Events) != len(sampleEvents()) {
		t.Fatalf("tee fanout wrong: %d/%d", len(a.Events), len(b.Events))
	}
}
