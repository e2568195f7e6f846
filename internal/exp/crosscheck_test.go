package exp

import (
	"strings"
	"testing"
)

// TestCrossCheckCampaignRuns: a small campaign completes, checks a
// plausible number of bounds, and any violation it finds is
// attributable to same-priority VC sharing.
func TestCrossCheckCampaignRuns(t *testing.T) {
	rep, err := CrossCheck(CrossCheckConfig{Trials: 3, Streams: 12, PLevels: 4, Seed: 5, Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked < 20 {
		t.Fatalf("checked only %d bounds", rep.Checked)
	}
	if rep.WorstRatio <= 0 {
		t.Fatalf("worst ratio %f", rep.WorstRatio)
	}
	for _, v := range rep.Violations {
		if v.SamePriorityOverlaps == 0 {
			t.Fatalf("violation without same-priority sharing on the victim's path, a candidate analysis defect: %s", v)
		}
	}
	out := rep.Format()
	if !strings.Contains(out, "crosscheck: 3 trials") {
		t.Fatalf("format: %s", out)
	}
}

// TestCrossCheckDistinctPrioritiesAreClean: with one stream per
// priority level there is no VC sharing, so the bounds must hold
// unconditionally.
func TestCrossCheckDistinctPrioritiesAreClean(t *testing.T) {
	rep, err := CrossCheck(CrossCheckConfig{Trials: 4, Streams: 10, PLevels: 64, Seed: 11, Cycles: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// With 64 levels over 10 streams, same-priority collisions are
	// rare; any violation must still involve VC sharing.
	for _, v := range rep.Violations {
		if v.SamePriorityOverlaps == 0 {
			t.Fatalf("violation without sharing: %s", v)
		}
	}
}

// TestCrossCheckFormatNamesGenuineViolations: the benign-sharing note
// is printed only when every violation has same-priority sharing; a
// violation without it is the candidate defect cmd/crosscheck exits 2
// for, and the summary must say so instead of calling it benign.
func TestCrossCheckFormatNamesGenuineViolations(t *testing.T) {
	const benign = "all violations stem from same-priority VC sharing"
	sharing := Violation{Stream: 1, U: 10, MaxLatency: 12, SamePriorityOverlaps: 2}
	genuine := Violation{Stream: 2, U: 10, MaxLatency: 11}

	rep := &CrossCheckReport{Violations: []Violation{sharing}}
	if rep.Genuine() != 0 || !strings.Contains(rep.Format(), benign) {
		t.Errorf("sharing-only report: Genuine() = %d, want 0 and the benign note:\n%s", rep.Genuine(), rep.Format())
	}
	rep = &CrossCheckReport{Violations: []Violation{sharing, genuine}}
	out := rep.Format()
	if rep.Genuine() != 1 {
		t.Errorf("Genuine() = %d, want 1", rep.Genuine())
	}
	if strings.Contains(out, benign) {
		t.Errorf("report with a genuine violation calls all violations benign:\n%s", out)
	}
	if !strings.Contains(out, "1 of 2 violations are genuine") {
		t.Errorf("report does not count the genuine violation:\n%s", out)
	}
}

func TestCrossCheckDefaults(t *testing.T) {
	c := CrossCheckConfig{}.withDefaults()
	if c.Trials != 10 || c.Streams != 20 || c.PLevels != 4 || c.Cycles != 30000 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Trial: 1, Seed: 2, Stream: 3, Priority: 4, U: 10, MaxLatency: 12, SamePriorityOverlaps: 1}
	s := v.String()
	for _, want := range []string{"trial 1", "M3", "12 > U 10", "1 same-priority"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
}

// TestCrossCheckGolden pins a campaign that finds violations, one of
// them with no same-priority sharing on the victim's path: the text
// `crosscheck -trials 40 -streams 20 -levels 4` prints, which exits 2.
func TestCrossCheckGolden(t *testing.T) {
	rep, err := CrossCheck(CrossCheckConfig{Trials: 40, Streams: 20, PLevels: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "crosscheck_40x20x4", rep.Format())
	if rep.Genuine() != 1 {
		t.Fatalf("Genuine() = %d, want 1", rep.Genuine())
	}
}
