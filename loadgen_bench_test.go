package repro

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/stream"
)

// BenchmarkDaemonLoad is the tracked daemon-throughput number in
// BENCH_core.json (make bench-json): one pinned open-loop profile —
// 200 mixed ops offered at 1000 ops/s from 6 clients against a
// hermetic snapshot-persisting daemon on the 10×10 mesh — reported as
// sustained goodput and the p99 open-loop latency clients saw. The
// run must stay clean: any error, shed or rejection fails the
// benchmark rather than quietly skewing the metric.
func BenchmarkDaemonLoad(b *testing.B) {
	sched, err := loadgen.BuildSchedule(loadgen.DefaultScheduleConfig(200, 1000, 1))
	if err != nil {
		b.Fatal(err)
	}
	// Building and replay-validating the schedule is set-up, not load.
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := loadgen.StartInProc(loadgen.InProcConfig{
			Topology:     stream.TopologySpec{Kind: "mesh2d", W: 10, H: 10},
			SnapshotPath: filepath.Join(b.TempDir(), "state.json"),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err = loadgen.NewRunner(loadgen.Config{Clients: 6}, d).Run(sched)
		b.StopTimer()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		stopErr := d.Stop(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		if stopErr != nil {
			b.Fatal(stopErr)
		}
		if t := rep.Totals; t.Errors != 0 || t.Shed != 0 || t.Rejected != 0 {
			b.Fatalf("load profile not clean: %+v", t)
		}
		b.StartTimer()
	}
	b.ReportMetric(rep.GoodputOPS, "goodput-ops/s")
	b.ReportMetric(float64(rep.Totals.Sched.P99US), "p99-us")
}
