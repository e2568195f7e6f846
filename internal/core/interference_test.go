package core

import (
	"strings"
	"testing"
)

func TestInterferenceBreakdown(t *testing.T) {
	set := paperExample(t)
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Interference(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.U != 33 || rep.Latency != 10 {
		t.Fatalf("U=%d L=%d", rep.U, rep.Latency)
	}
	if len(rep.Contributions) != 4 {
		t.Fatalf("contributions: %+v", rep.Contributions)
	}
	// Sorted by decreasing marginal, all non-negative, and the direct
	// blockers dominate: M3 (C=9) is the largest single contributor.
	prev := int(^uint(0) >> 1)
	byID := map[int]int{}
	for _, c := range rep.Contributions {
		if c.Marginal < 0 {
			t.Fatalf("negative marginal: %+v", c)
		}
		if c.Marginal > prev {
			t.Fatal("not sorted")
		}
		prev = c.Marginal
		byID[int(c.ID)] = c.Marginal
	}
	if rep.Contributions[0].ID != 3 {
		t.Fatalf("largest contributor should be M3 (9-flit direct blocker): %+v", rep.Contributions)
	}
	out := rep.Format()
	if !strings.Contains(out, "interference on M4") || !strings.Contains(out, "marginal") {
		t.Fatalf("format: %s", out)
	}
}

func TestInterferenceOnUnblockedStream(t *testing.T) {
	set := paperExample(t)
	a, _ := NewAnalyzer(set)
	rep, err := a.Interference(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.U != 7 || len(rep.Contributions) != 0 {
		t.Fatalf("unblocked stream: %+v", rep)
	}
}

func TestInterferenceErrors(t *testing.T) {
	set := paperExample(t)
	a, _ := NewAnalyzer(set)
	if _, err := a.Interference(99, 50); err == nil {
		t.Fatal("accepted unknown stream")
	}
	if _, err := a.Interference(4, 0); err == nil {
		t.Fatal("accepted zero horizon")
	}
}
