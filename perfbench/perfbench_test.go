package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/server"
)

// benchFile is the part of BENCHMARK.json the benchmark must agree with.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	check := func(kind string, file []fileMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i] != (fileMetric{d.name, d.unit}) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, file[i], d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// tinyConfig runs a workload at test scale, with the cold-start probe
// run in-process.
func tinyConfig(t *testing.T, workload string, trace bool, out *strings.Builder) config {
	return config{
		workload: workload, seed: 1, dur: 300 * time.Millisecond, trace: trace, tiny: true,
		workDir: t.TempDir(), out: out,
		cold: func(w string, seed int64) (time.Duration, error) {
			t0 := time.Now()
			err := coldPass(w, seed, true)
			return time.Since(t0), err
		},
	}
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and traced
// at test scale: each run must pass its output checks and report every
// metric BENCHMARK.json names, with its unit, end-to-end values nonzero.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out strings.Builder
			res, err := execute(tinyConfig(t, w, trace, &out))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestDaemonChecksFailOnCorruption drives a few lap steps into a live
// daemon, then hands the checks a corrupted mirror and report.
func TestDaemonChecksFailOnCorruption(t *testing.T) {
	lap, err := buildLaps(daemonScaleFor(true), 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(filepath.Join(t.TempDir(), "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	w := &writer{client: newClient(), base: d.URL(), lap: lap, handles: make([]admit.Handle, len(lap))}
	for i := 0; i < 15; i++ {
		if _, err := w.step(); err != nil {
			t.Fatal(err)
		}
	}
	var streams struct {
		Streams []server.StreamInfo `json:"streams"`
	}
	var rep server.ReportResponse
	c := &http.Client{}
	if err := getJSON(c, d.URL()+"/v1/streams", &streams); err != nil {
		t.Fatal(err)
	}
	if err := getJSON(c, d.URL()+"/v1/report", &rep); err != nil {
		t.Fatal(err)
	}
	if len(w.mirror) < 2 {
		t.Fatalf("only %d live streams", len(w.mirror))
	}
	if err := checkMirror(w.mirror, streams.Streams); err != nil {
		t.Fatalf("clean mirror: %v", err)
	}
	if err := checkReport(streams.Streams, rep); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	missing := append(append([]liveStream(nil), w.mirror[:1]...), w.mirror[2:]...)
	if checkMirror(missing, streams.Streams) == nil {
		t.Error("mirror missing one handle passed the check")
	}
	wrong := append([]liveStream(nil), w.mirror...)
	wrong[0].Handle = wrong[1].Handle
	if checkMirror(wrong, streams.Streams) == nil {
		t.Error("mirror with a wrong handle passed the check")
	}
	rep.Verdicts[len(rep.Verdicts)-1].U++
	if checkReport(streams.Streams, rep) == nil {
		t.Error("report with an altered bound passed the check")
	}
}

func TestTableCheckFailsOnAlteredRow(t *testing.T) {
	specs := tableSpecs(1, tablesScale(true))
	ref, _, err := tablePass(specs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tablePass(specs)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := checkTables(ref, got); bad != 0 {
		t.Fatalf("identical passes: %d bad (%v)", bad, err)
	}
	got[0].Rows[0].MeanRatio += 0.001
	if bad, _ := checkTables(ref, got); bad != 1 {
		t.Errorf("altered averaged row: %d bad, want 1", bad)
	}
	got[1].Trials[2].Rows[0].Observed++
	if bad, _ := checkTables(ref, got); bad != 2 {
		t.Errorf("altered trial row too: %d bad, want 2", bad)
	}
}

func TestReplicationCheckFailsOnAlteredReplication(t *testing.T) {
	study := mcConfig(mcScale(true), false)
	ref, _, err := mcPass(study)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := mcPass(study)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := checkReplications(ref, got); bad != 0 {
		t.Fatalf("identical passes: %d bad (%v)", bad, err)
	}
	got.Replications[1].Misses++
	if bad, _ := checkReplications(ref, got); bad != 1 {
		t.Errorf("altered replication: %d bad, want 1", bad)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []spanRecord{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 35, End: 45},
	}
	want := map[int]int64{1: 100 - 60, 2: 30, 3: 30 - 10, 4: 30, 5: 10}
	for _, s := range tr.finish() {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestBusyShareCapsAtWorkers(t *testing.T) {
	window := [][2]int64{{0, 10}}
	if got := busyShare([][2]int64{{0, 10}, {0, 10}, {0, 5}}, 2, window); got != 1 {
		t.Errorf("three runnable on two workers: %v, want 1", got)
	}
	if got := busyShare([][2]int64{{0, 10}, {0, 5}}, 2, window); got != 0.75 {
		t.Errorf("one worker idle half the window: %v, want 0.75", got)
	}
}
