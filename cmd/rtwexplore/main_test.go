package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/stream"
	"repro/internal/workload"
)

// tiny is a grid small enough for fast test runs; §5 pool workloads
// inflate on the 10×10 mesh, so mesh2d-10x10 with vcs ≥ plevels is
// guaranteed to admit the full set.
var tiny = []string{"-streams", "6", "-plevels", "2", "-genseed", "3",
	"-topos", "mesh2d-10x10,ring-8", "-vcs", "1,2", "-buffers", "1", "-policies", "workload"}

func TestSweepJSONToStdout(t *testing.T) {
	var out bytes.Buffer
	args := append([]string{"sweep", "-json", "-"}, tiny...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var res explore.SweepResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not the JSON result: %v", err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points", len(res.Points))
	}
	if res.Demands != 6 {
		t.Fatalf("demands %d", res.Demands)
	}
}

func TestSweepSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run(append([]string{"sweep"}, tiny...), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"swept 4 configurations", "best:", "worst:", "spread"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var runs [][]byte
	for _, workers := range []string{"1", "4"} {
		var out bytes.Buffer
		args := append([]string{"sweep", "-json", "-", "-workers", workers}, tiny...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out.Bytes())
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("-workers changed the JSON output")
	}
}

func TestSweepFileOutputs(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "sweep.json")
	csvPath := filepath.Join(dir, "sweep.csv")
	svgPath := filepath.Join(dir, "sweep.svg")
	var out bytes.Buffer
	args := append([]string{"sweep", "-json", jsonPath, "-csv", csvPath, "-svg", svgPath}, tiny...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonPath, csvPath, svgPath} {
		b, err := os.ReadFile(p)
		if err != nil || len(b) == 0 {
			t.Fatalf("artifact %s missing or empty: %v", p, err)
		}
	}
	svg, _ := os.ReadFile(svgPath)
	if !strings.HasPrefix(string(svg), "<svg ") {
		t.Fatal("svg artifact is not an SVG")
	}
	// The summary still goes to stdout when files absorb the data.
	if !strings.Contains(out.String(), "best:") {
		t.Fatalf("no summary on stdout:\n%s", out.String())
	}
}

// writeLightSet writes a light 4×4-mesh stream set (short messages,
// 4 priority levels, inflated periods) to a temp file: light enough
// that the simulator confirms the analysis with zero misses.
func writeLightSet(t *testing.T) string {
	t.Helper()
	set, _, err := workload.Generate(workload.Config{
		MeshW: 4, MeshH: 4, Streams: 5, PLevels: 4,
		CMin: 1, CMax: 8, TMin: 40, TMax: 90,
		Seed: 9, InflatePeriods: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.EncodeSet(f, set); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestSweepFromWorkloadFile(t *testing.T) {
	path := writeLightSet(t)
	var out bytes.Buffer
	args := []string{"sweep", "-workload", path, "-json", "-",
		"-topos", "mesh2d-4x4", "-vcs", "4", "-buffers", "1", "-policies", "workload"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var res explore.SweepResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "set" || res.Demands != 5 {
		t.Fatalf("workload header: %+v", res)
	}
	if !res.Points[0].FullyAdmitted {
		t.Fatalf("inflated workload rejected on its origin mesh: %+v", res.Points[0])
	}
}

func TestSynthFindsWinner(t *testing.T) {
	path := writeLightSet(t)
	var out bytes.Buffer
	args := []string{"synth", "-json", "-", "-check", "-validate", "-cycles", "2000",
		"-workload", path, "-topos", "ring-8,mesh2d-4x4", "-vcs", "1,4", "-buffers", "1,2", "-policies", "workload"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var res explore.SynthResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Winner == nil {
		t.Fatal("no winner on a grid containing the origin mesh")
	}
	if !res.Winner.Admitting || !res.Winner.Validated {
		t.Fatalf("winner not sim-validated: %+v", res.Winner)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
}

func TestSynthCheckFailsWhenNothingAdmits(t *testing.T) {
	// 30 heavy §5 streams cannot fit a 1-VC ring-4.
	var out bytes.Buffer
	args := []string{"synth", "-check", "-streams", "30", "-plevels", "4",
		"-topos", "ring-4", "-vcs", "1", "-buffers", "1", "-policies", "workload"}
	err := run(args, &out)
	if err == nil || !strings.Contains(err.Error(), "check failed") {
		t.Fatalf("expected check failure, got %v", err)
	}
}

func TestSynthSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run(append([]string{"synth"}, tiny...), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"evaluated", "winner:", "frontier:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{},
		{"paint"},
		{"sweep", "extra-arg"},
		{"sweep", "-vcs", "two"},
		{"sweep", "-topos", "klein-bottle-4"},
		{"sweep", "-workload", filepath.Join(t.TempDir(), "absent.json")},
		{"sweep", "-validate", "-engine", "event"}, // -engine is gone
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %q accepted", args)
		}
	}
}

func TestHelp(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"help"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sweep") || !strings.Contains(out.String(), "synth") {
		t.Fatalf("help output: %s", out.String())
	}
}
