package main

import (
	"strings"
	"testing"
)

func TestParseConfigs(t *testing.T) {
	points, err := parseConfigs("preemptive:2,li:1, nonpreemptive-fifo", "ring-8", 6, 3, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	if points[1].Buffer != 1 || points[1].Arbiter.String() != "li" {
		t.Fatalf("point 1 = %+v", points[1])
	}
	if points[2].Buffer != 2 {
		t.Fatalf("default buffer not applied: %+v", points[2])
	}
	for _, p := range points {
		if p.Topology != "ring-8" || p.Streams != 6 || p.PLevels != 3 || p.Cycles != 2000 || p.Warmup != 100 {
			t.Fatalf("shared shape not applied: %+v", p)
		}
	}

	for _, bad := range []string{"", "warp", "li:0", "li:x"} {
		if _, err := parseConfigs(bad, "ring-8", 6, 3, 2000, 100); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	if err := run("ring-8", 6, 3, 3, 1, "preemptive:2,li:2",
		2000, 100, 2, true, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run("ring-8", 6, 3, 2, 1, "preemptive",
		2000, 100, 1, false, true, false); err != nil {
		t.Fatal(err)
	}
	if err := run("ring-8", 6, 3, 2, 1, "preemptive",
		2000, 100, 1, false, false, true); err != nil {
		t.Fatal(err)
	}
	if err := run("ring-8", 6, 3, 2, 1, "preemptive",
		2000, 100, 1, false, true, true); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("json+csv accepted: %v", err)
	}
}
