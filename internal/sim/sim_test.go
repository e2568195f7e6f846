package sim

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

func mustSet(t testing.TB, m *topology.Mesh2D, specs [][6]int) *stream.Set {
	t.Helper()
	r := routing.NewXY(m)
	set := stream.NewSet(m)
	for _, sp := range specs {
		if _, err := set.Add(r, topology.NodeID(sp[0]), topology.NodeID(sp[1]), sp[2], sp[3], sp[4], sp[5]); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// TestIsolatedLatencyEqualsL: a single unloaded stream measures exactly
// L = hops + C - 1 for every delivered message.
func TestIsolatedLatencyEqualsL(t *testing.T) {
	m := topology.NewMesh2D(10, 10)
	set := mustSet(t, m, [][6]int{{0, 99, 1, 100, 7, 100}}) // 18 hops, 7 flits
	s, err := New(set, Config{Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	st := res.PerStream[0]
	if st.Observed < 9 {
		t.Fatalf("too few deliveries: %+v", st)
	}
	want := set.Get(0).Latency // 18 + 7 - 1 = 24
	if want != 24 {
		t.Fatalf("latency precondition wrong: %d", want)
	}
	if st.MinLatency != want || st.MaxLatency != want {
		t.Fatalf("latency range [%d,%d], want exactly %d", st.MinLatency, st.MaxLatency, want)
	}
}

// TestIsolatedLatencyPropertyRandomPaths: the L = hops + C - 1 identity
// holds for random source/destination/length combinations and for every
// arbiter kind.
func TestIsolatedLatencyPropertyRandomPaths(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	rng := rand.New(rand.NewSource(99))
	arbs := []ArbiterKind{Preemptive, NonPreemptiveFIFO, NonPreemptivePriority, Li}
	for trial := 0; trial < 40; trial++ {
		src := rng.Intn(64)
		dst := rng.Intn(64)
		if src == dst {
			dst = (dst + 1) % 64
		}
		c := 1 + rng.Intn(20)
		set := mustSet(t, m, [][6]int{{src, dst, 1, 500, c, 500}})
		arb := arbs[trial%len(arbs)]
		s, err := New(set, Config{Cycles: 600, Arbiter: arb})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		st := res.PerStream[0]
		if st.Observed == 0 {
			t.Fatalf("trial %d: nothing delivered", trial)
		}
		want := set.Get(0).Latency
		if st.MinLatency != want || st.MaxLatency != want {
			t.Fatalf("trial %d (%s): latency [%d,%d], want %d (hops=%d c=%d)",
				trial, arb, st.MinLatency, st.MaxLatency, want, set.Get(0).Path.Hops(), c)
		}
	}
}

// TestBufferDepthOneHalvesThroughput: with single-flit buffers the worm
// advances every other cycle, so an isolated message takes
// hops + 2*(C-1) cycles.
func TestBufferDepthOneHalvesThroughput(t *testing.T) {
	m := topology.NewMesh2D(6, 1)
	set := mustSet(t, m, [][6]int{{0, 5, 1, 200, 4, 200}}) // 5 hops, 4 flits
	s, err := New(set, Config{Cycles: 400, BufferDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	st := res.PerStream[0]
	want := 5 + 2*(4-1) // 11
	if st.MinLatency != want || st.MaxLatency != want {
		t.Fatalf("latency [%d,%d], want %d", st.MinLatency, st.MaxLatency, want)
	}
}

// TestPreemptionProtectsHighPriority: on a shared channel, the
// high-priority stream keeps its unloaded latency while a heavy
// low-priority stream suffers.
func TestPreemptionProtectsHighPriority(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	set := mustSet(t, m, [][6]int{
		{0, 7, 2, 20, 3, 20},  // high priority: 7 hops, 3 flits, L=9
		{0, 7, 1, 25, 15, 50}, // low priority hog
	})
	s, err := New(set, Config{Cycles: 3000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	hi := res.PerStream[0]
	lo := res.PerStream[1]
	if hi.MaxLatency != set.Get(0).Latency {
		t.Fatalf("high priority max latency %d, want unloaded %d", hi.MaxLatency, set.Get(0).Latency)
	}
	if lo.MaxLatency <= set.Get(1).Latency {
		t.Fatalf("low priority should be delayed: max %d, L %d", lo.MaxLatency, set.Get(1).Latency)
	}
}

// TestFigure2PriorityInversion reproduces the failure mode of the
// paper's Figure 2: with non-preemptive switching a low-priority
// message holds a channel while blocked, and a high-priority message
// needing that channel waits behind it — its latency explodes. With
// flit-level preemption the same workload keeps the high-priority
// latency at its unloaded value.
func TestFigure2PriorityInversion(t *testing.T) {
	m := topology.NewMesh2D(4, 2)
	id := m.ID
	specs := [][6]int{
		// S: saturates the vertical channel (2,0)->(2,1). Priority 2.
		{int(id(2, 0)), int(id(2, 1)), 2, 20, 18, 100},
		// L: (0,0)->(2,1) crosses row 0 then the saturated vertical
		// channel; its 10-flit worm exceeds the 2x2 flits of downstream
		// buffering, so it holds (0,0)->(1,0) while blocked. Priority 1.
		{int(id(0, 0)), int(id(2, 1)), 1, 60, 10, 200},
		// H: needs only (0,0)->(1,0), the channel L holds. Priority 3
		// (the highest).
		{int(id(0, 0)), int(id(1, 0)), 3, 10, 2, 50},
	}
	set := mustSet(t, m, specs)
	unloadedH := set.Get(2).Latency // 1 hop + 2 flits - 1 = 2

	// H first releases at cycle 5, when L's worm already holds
	// (0,0)->(1,0) while blocked behind S. Non-preemptive switching
	// cannot take the channel back from L.
	offsets := []int{0, 0, 5}
	nonpre, err := New(set, Config{Cycles: 4000, Arbiter: NonPreemptivePriority, Offsets: offsets})
	if err != nil {
		t.Fatal(err)
	}
	rn := nonpre.Run()
	pre, err := New(set, Config{Cycles: 4000, Arbiter: Preemptive, Offsets: offsets})
	if err != nil {
		t.Fatal(err)
	}
	rp := pre.Run()

	if rp.PerStream[2].MaxLatency != unloadedH {
		t.Fatalf("preemptive: H max latency %d, want %d", rp.PerStream[2].MaxLatency, unloadedH)
	}
	if rn.PerStream[2].MaxLatency < 5*unloadedH {
		t.Fatalf("non-preemptive: expected priority inversion, H max latency only %d (unloaded %d)",
			rn.PerStream[2].MaxLatency, unloadedH)
	}
}

// TestStrictPhysicalPriorityStarvesLowerVCs: under the paper's literal
// arbitration rule a blocked higher-priority worm keeps the channel
// reserved; the work-conserving default lets lower priorities use the
// idle bandwidth.
func TestStrictPhysicalPriorityStarvesLowerVCs(t *testing.T) {
	m := topology.NewMesh2D(4, 2)
	id := m.ID
	specs := [][6]int{
		// S: highest priority, saturates (1,0)->(1,1).
		{int(id(1, 0)), int(id(1, 1)), 3, 20, 18, 100},
		// H: middle priority, (0,0)->(1,1): stalls behind S with its
		// worm holding (0,0)->(1,0).
		{int(id(0, 0)), int(id(1, 1)), 2, 50, 6, 300},
		// L: lowest priority, wants only (0,0)->(1,0).
		{int(id(0, 0)), int(id(1, 0)), 1, 15, 2, 200},
	}
	set := mustSet(t, m, specs)

	work, err := New(set, Config{Cycles: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rw := work.Run()
	strict, err := New(set, Config{Cycles: 4000, StrictPhysicalPriority: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := strict.Run()

	if rs.PerStream[2].MaxLatency <= rw.PerStream[2].MaxLatency {
		t.Fatalf("strict arbitration should delay the lowest priority more: strict %d vs work-conserving %d",
			rs.PerStream[2].MaxLatency, rw.PerStream[2].MaxLatency)
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	rng := rand.New(rand.NewSource(5))
	var specs [][6]int
	for i := 0; i < 12; i++ {
		src := rng.Intn(36)
		dst := rng.Intn(36)
		if src == dst {
			dst = (dst + 1) % 36
		}
		specs = append(specs, [6]int{src, dst, 1 + rng.Intn(4), 40 + rng.Intn(50), 1 + rng.Intn(10), 0})
	}
	run := func() *Result {
		set := mustSet(t, m, specs)
		s, err := New(set, Config{Cycles: 2000, Warmup: 100})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	for i := range a.PerStream {
		if a.PerStream[i] != b.PerStream[i] {
			t.Fatalf("nondeterministic stats for stream %d:\n%+v\n%+v", i, a.PerStream[i], b.PerStream[i])
		}
	}
}

// TestWarmupExcludesEarlyDeliveries: messages generated before the
// warmup cutoff are delivered but not observed.
func TestWarmupExcludesEarlyDeliveries(t *testing.T) {
	m := topology.NewMesh2D(4, 1)
	set := mustSet(t, m, [][6]int{{0, 3, 1, 50, 2, 50}})
	s, err := New(set, Config{Cycles: 500, Warmup: 200})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	st := res.PerStream[0]
	if st.Observed >= st.Delivered {
		t.Fatalf("warmup not applied: observed %d, delivered %d", st.Observed, st.Delivered)
	}
	// Releases at 0, 50, ..., 450: 10 generated; observed from t=200.
	if st.Generated != 10 {
		t.Fatalf("generated = %d, want 10", st.Generated)
	}
	if st.Observed != 6 {
		t.Fatalf("observed = %d, want 6 (releases 200..450)", st.Observed)
	}
}

// TestOffsets: per-stream release offsets shift the generation
// schedule.
func TestOffsets(t *testing.T) {
	m := topology.NewMesh2D(4, 1)
	set := mustSet(t, m, [][6]int{{0, 3, 1, 100, 2, 100}})
	s, err := New(set, Config{Cycles: 250, Offsets: []int{60}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if got := res.PerStream[0].Generated; got != 2 { // releases at 60, 160
		t.Fatalf("generated = %d, want 2", got)
	}
}

// TestSameStreamMessagesStayOrdered: consecutive messages of one stream
// share the same VC on the first channel, so they cannot overtake; with
// a saturating period the k-th delivery is k periods of work apart.
func TestSameStreamMessagesStayOrdered(t *testing.T) {
	m := topology.NewMesh2D(3, 1)
	// Period 5, C=5, 2 hops: channel fully saturated; deliveries must
	// be exactly 5 cycles apart.
	set := mustSet(t, m, [][6]int{{0, 2, 1, 5, 5, 100}})
	s, err := New(set, Config{Cycles: 300})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	st := res.PerStream[0]
	if st.Observed == 0 {
		t.Fatal("nothing delivered")
	}
	// Latency of message k grows as the queue never drains faster than
	// it fills; with T == C per-hop service the latency is constant L.
	if st.MinLatency != set.Get(0).Latency {
		t.Fatalf("min latency %d, want %d", st.MinLatency, set.Get(0).Latency)
	}
	if st.MaxLatency != set.Get(0).Latency {
		t.Fatalf("max latency %d, want %d (steady saturation)", st.MaxLatency, set.Get(0).Latency)
	}
}

// TestDeadlineMissesCounted: a hog makes the victim miss its (tight)
// deadline and the misses are tallied.
func TestDeadlineMissesCounted(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	set := mustSet(t, m, [][6]int{
		{0, 7, 2, 30, 20, 60}, // hog
		{0, 7, 1, 30, 3, 9},   // victim with deadline == L
	})
	s, err := New(set, Config{Cycles: 3000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.PerStream[1].Misses == 0 {
		t.Fatalf("expected deadline misses: %+v", res.PerStream[1])
	}
	if res.TotalMisses() != res.PerStream[0].Misses+res.PerStream[1].Misses {
		t.Fatal("TotalMisses inconsistent")
	}
}

func TestConfigValidation(t *testing.T) {
	m := topology.NewMesh2D(4, 1)
	set := mustSet(t, m, [][6]int{{0, 3, 1, 50, 2, 50}})
	if _, err := New(set, Config{Cycles: 0}); err == nil {
		t.Error("accepted zero cycles")
	}
	if _, err := New(set, Config{Cycles: 100, Warmup: 100}); err == nil {
		t.Error("accepted warmup >= cycles")
	}
	if _, err := New(set, Config{Cycles: 100, BufferDepth: -1}); err == nil {
		t.Error("accepted negative buffer depth")
	}
	if _, err := New(set, Config{Cycles: 100, Offsets: []int{1, 2}}); err == nil {
		t.Error("accepted wrong offsets length")
	}
	if _, err := New(set, Config{Cycles: 100, Offsets: []int{-5}}); err == nil {
		t.Error("accepted negative offset")
	}
	empty := stream.NewSet(m)
	if _, err := New(empty, Config{Cycles: 100}); err == nil {
		t.Error("accepted empty set")
	}
}

func TestArbiterKindString(t *testing.T) {
	kinds := map[ArbiterKind]string{
		Preemptive:            "preemptive",
		NonPreemptiveFIFO:     "nonpreemptive-fifo",
		NonPreemptivePriority: "nonpreemptive-priority",
		Li:                    "li",
		ArbiterKind(42):       "arbiter(42)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestLiAllowsLowerVCUsage: under Li's scheme a message can proceed on
// a lower-numbered VC when its own level is taken, so two same-priority
// messages can be in flight on one link concurrently (bandwidth
// shared), unlike the paper's scheme where the second waits for the VC.
func TestLiAllowsLowerVCUsage(t *testing.T) {
	m := topology.NewMesh2D(4, 2)
	id := m.ID
	// Two same-priority streams sharing channel (1,0)->(2,0), plus a
	// third priority level so more than one VC exists.
	specs := [][6]int{
		{int(id(0, 0)), int(id(3, 0)), 2, 40, 10, 200},
		{int(id(1, 0)), int(id(3, 0)), 2, 40, 10, 200},
		{int(id(0, 1)), int(id(3, 1)), 1, 40, 2, 200},
	}
	set := mustSet(t, m, specs)
	li, err := New(set, Config{Cycles: 2000, Arbiter: Li})
	if err != nil {
		t.Fatal(err)
	}
	rl := li.Run()
	for i := 0; i < 2; i++ {
		if rl.PerStream[i].Observed == 0 {
			t.Fatalf("Li: stream %d starved: %+v", i, rl.PerStream[i])
		}
	}
}

// TestStatsAccessors covers Result helpers.
func TestStatsAccessors(t *testing.T) {
	m := topology.NewMesh2D(4, 1)
	set := mustSet(t, m, [][6]int{{0, 3, 1, 50, 2, 50}})
	s, _ := New(set, Config{Cycles: 300})
	res := s.Run()
	if res.TotalDelivered() == 0 {
		t.Fatal("no deliveries")
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
	st := res.PerStream[0]
	if st.Mean() != float64(set.Get(0).Latency) {
		t.Fatalf("mean = %v", st.Mean())
	}
	var zero StreamStats
	if !isNaN(zero.Mean()) {
		t.Fatal("mean of zero observations should be NaN")
	}
	// Both engines book deliveries through Observe: a latency equal to
	// the deadline is on time, one past it is a miss.
	var obs StreamStats
	obs.Observe(9, 9)
	obs.Observe(10, 9)
	if obs.Observed != 2 || obs.Misses != 1 || obs.SumLatency != 19 ||
		obs.MinLatency != 9 || obs.MaxLatency != 10 || obs.Latencies.Count() != 2 {
		t.Fatalf("Observe: %+v", obs)
	}
}

func isNaN(f float64) bool { return f != f }

// TestUnfinishedAccounting: messages still in the network at the end of
// the run are reported.
func TestUnfinishedAccounting(t *testing.T) {
	m := topology.NewMesh2D(10, 1)
	// One long message released near the end cannot finish.
	set := mustSet(t, m, [][6]int{{0, 9, 1, 1000, 30, 1000}})
	s, err := New(set, Config{Cycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Unfinished != 1 || res.PerStream[0].Unfinished != 1 {
		t.Fatalf("unfinished = %d/%d, want 1/1", res.Unfinished, res.PerStream[0].Unfinished)
	}
}
