package main

import (
	"path/filepath"
	"testing"
)

func TestParseArbiter(t *testing.T) {
	for _, name := range []string{"preemptive", "nonpreemptive-fifo", "nonpreemptive-priority", "li"} {
		k, err := parseArbiter(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Fatalf("%s round-trips to %s", name, k)
		}
	}
	if _, err := parseArbiter("bogus"); err == nil {
		t.Fatal("accepted bogus arbiter")
	}
}

func TestRunSmoke(t *testing.T) {
	file := filepath.Join("..", "..", "testdata", "paper_example.json")
	opts := simOptions{dropLate: true, jitter: 3, deadlock: 100}
	if err := run(2000, 100, "preemptive", 2, false, true, true, true, opts, []string{file}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	file := filepath.Join("..", "..", "testdata", "paper_example.json")
	if err := run(2000, 100, "bogus", 2, false, false, false, false, simOptions{}, []string{file}); err == nil {
		t.Error("accepted bogus arbiter")
	}
	if err := run(2000, 100, "preemptive", 2, false, false, false, false, simOptions{}, []string{"a", "b"}); err == nil {
		t.Error("accepted two files")
	}
	if err := run(2000, 100, "preemptive", 2, false, false, false, false, simOptions{}, []string{"/nope.json"}); err == nil {
		t.Error("accepted missing file")
	}
}

func TestRunTopologyMode(t *testing.T) {
	for _, name := range []string{"ring-12", "hypercube-4", "torus2d-4x4", "mesh2d-4x4"} {
		opts := simOptions{topology: name, streams: 8, plevels: 4, genseed: 1}
		if err := run(1500, 100, "preemptive", 2, false, true, false, false, opts, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRunStallsDropLate drives a generated workload with the stall
// decomposition and deadline drops on.
func TestRunStallsDropLate(t *testing.T) {
	opts := simOptions{topology: "ring-12", streams: 8, plevels: 4, genseed: 1, dropLate: true}
	if err := run(1500, 100, "preemptive", 2, false, false, false, true, opts, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunTopologyModeErrors(t *testing.T) {
	opts := simOptions{topology: "bus-4", streams: 8, plevels: 4, genseed: 1}
	if err := run(1000, 100, "preemptive", 2, false, false, false, false, opts, nil); err == nil {
		t.Error("accepted unknown topology")
	}
	opts = simOptions{topology: "ring-8", streams: 8, plevels: 4, genseed: 1}
	if err := run(1000, 100, "preemptive", 2, false, false, false, false, opts, []string{"x.json"}); err == nil {
		t.Error("accepted -topology together with an input file")
	}
}
