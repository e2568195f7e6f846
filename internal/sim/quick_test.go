package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestQuickSimInvariants: for random small workloads and configurations
// the simulator upholds its conservation laws:
//
//   - generated == delivered + dropped + unfinished, per stream;
//   - no channel carries more flits than there are cycles;
//   - every observed latency is at least the network latency;
//   - delivered messages never exceed what the release schedule allows.
func TestQuickSimInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	f := func(seedRaw uint32, arbRaw, bufRaw, dropRaw uint8) bool {
		m := topology.NewMesh2D(6, 6)
		r := routing.NewXY(m)
		set := stream.NewSet(m)
		n := 2 + int(seedRaw%5)
		for i := 0; i < n; i++ {
			src := rng.Intn(36)
			dst := rng.Intn(36)
			if src == dst {
				dst = (dst + 1) % 36
			}
			if _, err := set.Add(r, topology.NodeID(src), topology.NodeID(dst),
				1+rng.Intn(3), 30+rng.Intn(60), 1+rng.Intn(12), 0); err != nil {
				return false
			}
		}
		arbs := []ArbiterKind{Preemptive, NonPreemptiveFIFO, NonPreemptivePriority, Li}
		cfg := Config{
			Cycles:      2000,
			Warmup:      100,
			Arbiter:     arbs[int(arbRaw)%len(arbs)],
			BufferDepth: 1 + int(bufRaw%3),
			DropLate:    dropRaw%2 == 1,
		}
		s, err := New(set, cfg)
		if err != nil {
			return false
		}
		res := s.Run()
		for i := range res.PerStream {
			st := &res.PerStream[i]
			if st.Delivered+st.Dropped+st.Unfinished != st.Generated {
				return false
			}
			if st.Observed > 0 && st.MinLatency < set.Get(stream.ID(i)).Latency {
				return false
			}
			// The release schedule allows at most ceil(cycles/T)
			// messages.
			maxGen := (cfg.Cycles + set.Get(stream.ID(i)).Period - 1) / set.Get(stream.ID(i)).Period
			if st.Generated > maxGen {
				return false
			}
		}
		for _, cs := range res.PerChannel {
			if cs.Flits > cfg.Cycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPreemptiveDominatesForTop: across random workloads, the
// highest-priority stream's max latency under the preemptive scheme
// never exceeds the non-preemptive-FIFO one (statistically it should be
// far lower; here we assert the weak ordering that must always hold:
// preemption can only help the unique top priority).
func TestQuickPreemptiveDominatesForTop(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 12; trial++ {
		m := topology.NewMesh2D(6, 6)
		r := routing.NewXY(m)
		set := stream.NewSet(m)
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			src := rng.Intn(36)
			dst := rng.Intn(36)
			if src == dst {
				dst = (dst + 1) % 36
			}
			// Unique priorities, stream 0 highest.
			if _, err := set.Add(r, topology.NodeID(src), topology.NodeID(dst),
				n-i, 60+rng.Intn(60), 1+rng.Intn(10), 0); err != nil {
				t.Fatal(err)
			}
		}
		run := func(k ArbiterKind) int {
			s, err := New(set, Config{Cycles: 4000, Arbiter: k})
			if err != nil {
				t.Fatal(err)
			}
			return s.Run().PerStream[0].MaxLatency
		}
		pre := run(Preemptive)
		if pre != set.Get(0).Latency {
			t.Fatalf("trial %d: top priority under preemption measured %d, want unloaded %d",
				trial, pre, set.Get(0).Latency)
		}
	}
}
