package mc

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestWorkerCountInvariance runs the same study at workers = 1, 4 and
// GOMAXPROCS and requires byte-identical output: the replication seeds
// derive from (base, index) alone and results merge in index order, so
// worker scheduling must never show through.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := smallConfig()
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var ref *Result
	var refJSON []byte
	for _, w := range counts {
		cfg.Workers = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var buf bytes.Buffer
		if err := res.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refJSON = res, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d: result differs from workers=%d", w, counts[0])
		}
		if !bytes.Equal(refJSON, buf.Bytes()) {
			t.Fatalf("workers=%d: JSON differs from workers=%d", w, counts[0])
		}
	}
}

// TestReplicationPoolRace hammers the pool under the race detector:
// many concurrent small studies sharing nothing, each internally
// fanning replications across its own workers.
func TestReplicationPoolRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := Config{
				Seeds:    3,
				BaseSeed: int64(g),
				Workers:  3,
				Points: []PointConfig{
					{Topology: "mesh2d-4x4", Streams: 6, PLevels: 2, Arbiter: sim.Preemptive, Cycles: 1500, Warmup: 50},
				},
			}
			if _, err := Run(cfg); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}
