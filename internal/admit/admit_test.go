package admit

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// paperSpecs are the worked example's five streams (§4.4) in
// seven-tuple order, on a 10×10 mesh.
func paperSpecs(t *testing.T) (*topology.Mesh2D, []Spec) {
	t.Helper()
	m := topology.NewMesh2D(10, 10)
	return m, []Spec{
		{Src: m.ID(7, 3), Dst: m.ID(7, 7), Priority: 5, Period: 15, Length: 4, Deadline: 15},
		{Src: m.ID(1, 1), Dst: m.ID(5, 4), Priority: 4, Period: 10, Length: 2, Deadline: 10},
		{Src: m.ID(2, 1), Dst: m.ID(7, 5), Priority: 3, Period: 40, Length: 4, Deadline: 40},
		{Src: m.ID(4, 1), Dst: m.ID(8, 5), Priority: 2, Period: 45, Length: 9, Deadline: 45},
		{Src: m.ID(6, 1), Dst: m.ID(9, 3), Priority: 1, Period: 50, Length: 6, Deadline: 50},
	}
}

// TestPaperExampleStreamByStream: admitting the worked example one
// stream at a time yields exactly the offline bounds — U = 7, 8, 26,
// 30, 33 (EXPERIMENTS.md) — and every intermediate admission is
// feasible, as the paper's static test would confirm for each prefix.
func TestPaperExampleStreamByStream(t *testing.T) {
	m, specs := paperSpecs(t)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		res, err := c.Admit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Admitted {
			t.Fatalf("stream %d rejected: %s", i, res.Rejection)
		}
	}
	rep := c.Report()
	wantU := []int{7, 8, 26, 30, 33}
	for i, v := range rep.Verdicts {
		if v.U != wantU[i] {
			t.Errorf("U_%d = %d, want %d", i, v.U, wantU[i])
		}
	}
	if !rep.Feasible {
		t.Error("worked example should be feasible")
	}
	st := c.Stats()
	if st.Admitted != 5 || st.Rejected != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Five single-stream admissions over a five-stream set: the
	// incremental path must have served at least one cached bound (M0
	// and M1 never interact, so each other's admissions reuse caches).
	if st.Cached == 0 {
		t.Error("no bounds served from cache across single-stream admissions")
	}
}

// TestRejectionRollsBack: an admission that would break a deadline
// leaves the controller untouched and names the violated stream.
func TestRejectionRollsBack(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A modest stream, feasible on its own.
	res, err := c.Admit(Spec{Src: 0, Dst: 3, Priority: 1, Period: 60, Length: 6})
	if err != nil || !res.Admitted {
		t.Fatalf("base admit: %v %+v", err, res)
	}
	before := c.Report()
	// A higher-priority hog over the same row: its blocking pushes the
	// base stream past its deadline, or fails its own bound.
	hog := Spec{Src: 0, Dst: 5, Priority: 9, Period: 8, Length: 8, Deadline: 2000}
	res2, err := c.Admit(hog)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Admitted {
		t.Fatalf("hog admitted; report %+v", res2.Report)
	}
	if res2.Rejection == nil {
		t.Fatal("rejection missing")
	}
	rej := res2.Rejection
	if rej.New {
		t.Fatalf("victim should be the admitted stream, got %+v", rej)
	}
	if rej.Handle != res.Handles[0] {
		t.Fatalf("rejection handle = %d, want %d", rej.Handle, res.Handles[0])
	}
	if rej.U >= 0 && rej.U <= rej.Deadline {
		t.Fatalf("rejection carries a feasible U/D pair: %+v", rej)
	}
	if rej.String() == "" {
		t.Error("empty rejection string")
	}
	after := c.Report()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rejection disturbed the running system:\n%+v\n%+v", before, after)
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d", got)
	}
}

// TestRejectionNamesCandidate: when the infeasible stream is the
// newcomer itself, the rejection says so.
func TestRejectionNamesCandidate(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 10-flit messages cannot make a 5-flit-time deadline (L >= 10).
	res, err := c.Admit(Spec{Src: 0, Dst: 1, Priority: 1, Period: 20, Length: 10, Deadline: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Rejection == nil || !res.Rejection.New {
		t.Fatalf("result: %+v", res)
	}
	if c.Len() != 0 {
		t.Fatal("rejected candidate left residue")
	}
}

// TestWithdrawTightensBounds: withdrawing a blocker recomputes its
// dependents' bounds down to the fresh-analysis values.
func TestWithdrawTightensBounds(t *testing.T) {
	m, specs := paperSpecs(t)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AdmitBatch(specs)
	if err != nil || !res.Admitted {
		t.Fatalf("batch: %v %+v", err, res)
	}
	// Withdraw M2 — the worked example's pivotal intermediary.
	recomputed, err := c.Withdraw(res.Handles[2])
	if err != nil {
		t.Fatal(err)
	}
	if recomputed == 0 {
		t.Error("withdrawing a blocker recomputed nothing")
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	// The survivors' report must equal a fresh full analysis.
	fresh, err := freshReport(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Report(), fresh) {
		t.Fatalf("cached report diverged:\n%+v\n%+v", c.Report(), fresh)
	}
	// Unknown and doubled handles are refused atomically.
	if _, err := c.Withdraw(Handle(999)); err == nil {
		t.Error("withdrew unknown handle")
	}
	if _, err := c.Withdraw(res.Handles[0], res.Handles[0]); err == nil {
		t.Error("accepted a repeated handle")
	}
	if c.Len() != 4 {
		t.Fatal("failed withdrawal mutated the set")
	}
}

// TestValidationErrors: malformed specs are errors, not rejections.
func TestValidationErrors(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Src: 0, Dst: 0, Priority: 1, Period: 10, Length: 1},  // src == dst
		{Src: 0, Dst: 1, Priority: 1, Period: 0, Length: 1},   // period
		{Src: 0, Dst: 1, Priority: 1, Period: 10, Length: 0},  // length
		{Src: 0, Dst: 99, Priority: 1, Period: 10, Length: 1}, // off-mesh
	}
	for i, sp := range bad {
		if _, err := c.Admit(sp); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
	if _, err := c.AdmitBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := c.Withdraw(); err == nil {
		t.Error("empty withdrawal accepted")
	}
	if c.Len() != 0 {
		t.Fatal("errors left residue")
	}
	if _, err := New(m, Config{RouterLatency: -1}); err == nil {
		t.Error("negative router latency accepted")
	}
}

// TestDeadlineCap: a deadline above core.MaxSearchHorizon, given or
// defaulted from the period, is an error before any diagram is laid
// out. Deadline 2^62 used to panic a Cal_U worker goroutine and take
// the whole process down. A deadline at the cap is legal.
func TestDeadlineCap(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Src: 0, Dst: 3, Priority: 1, Period: 50, Length: 4, Deadline: 1 << 62},
		{Src: 0, Dst: 3, Priority: 1, Period: 50, Length: 4, Deadline: core.MaxSearchHorizon + 1},
		{Src: 0, Dst: 3, Priority: 1, Period: 1 << 33, Length: 4}, // deadline defaults to the period
	}
	for i, sp := range bad {
		if _, err := c.Admit(sp); err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Errorf("spec %d: err = %v, want a deadline error", i, err)
		}
	}
	if _, err := c.AdmitBatch([]Spec{{Src: 0, Dst: 3, Priority: 1, Period: 50, Length: 4}, bad[0]}); err == nil {
		t.Error("batch with an over-cap deadline accepted")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatalf("refused specs left residue: %d streams, stats %+v", c.Len(), c.Stats())
	}
	res, err := c.Admit(Spec{Src: 0, Dst: 3, Priority: 1, Period: 50, Length: 4, Deadline: core.MaxSearchHorizon})
	if err != nil || !res.Admitted {
		t.Fatalf("deadline at the cap: %v %+v", err, res)
	}
}

// TestSnapshotRestoreRoundTrip: snapshot → restore preserves streams,
// handles, bounds, and handle allocation.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m, specs := paperSpecs(t)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AdmitBatch(specs)
	if err != nil || !res.Admitted {
		t.Fatal("batch failed")
	}
	if _, err := c.Withdraw(res.Handles[1]); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(sn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Report(), c.Report()) {
		t.Fatalf("restored report differs:\n%+v\n%+v", r.Report(), c.Report())
	}
	if !reflect.DeepEqual(r.Streams(), c.Streams()) {
		t.Fatalf("restored streams differ:\n%+v\n%+v", r.Streams(), c.Streams())
	}
	// Handle allocation continues where the snapshot left off: a new
	// admission must not collide with any restored handle.
	res2, err := r.Admit(Spec{Src: m.ID(0, 0), Dst: m.ID(0, 3), Priority: 1, Period: 90, Length: 2})
	if err != nil || !res2.Admitted {
		t.Fatalf("post-restore admit: %v %+v", err, res2)
	}
	for _, a := range r.Streams()[:r.Len()-1] {
		if a.Handle == res2.Handles[0] {
			t.Fatalf("handle %d reused after restore", a.Handle)
		}
	}
}

// TestRestoreRefusesBadSnapshots covers the failure semantics
// documented in docs/DAEMON.md.
func TestRestoreRefusesBadSnapshots(t *testing.T) {
	base := &Snapshot{
		Topology:   stream.TopologySpec{Kind: "mesh2d", W: 4, H: 4},
		NextHandle: 3,
		Streams: []SnapshotStream{
			{Handle: 1, Src: 0, Dst: 3, Priority: 1, Period: 50, Length: 4, Deadline: 50},
		},
	}
	if _, err := Restore(base, Config{}); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	cases := map[string]func(*Snapshot){
		"bad topology":     func(s *Snapshot) { s.Topology.Kind = "klein-bottle" },
		"zero handle":      func(s *Snapshot) { s.Streams[0].Handle = 0 },
		"repeated handle":  func(s *Snapshot) { s.Streams = append(s.Streams, s.Streams[0]) },
		"infeasible":       func(s *Snapshot) { s.Streams[0].Deadline = 1 },
		"invalid stream":   func(s *Snapshot) { s.Streams[0].Period = -4 },
		"latency conflict": func(s *Snapshot) { s.RouterLatency = 2 },
		"deadline cap":     func(s *Snapshot) { s.Streams[0].Deadline = core.MaxSearchHorizon + 1 },
	}
	for name, mutate := range cases {
		sn := *base
		sn.Streams = append([]SnapshotStream(nil), base.Streams...)
		sn.Streams[0] = base.Streams[0]
		mutate(&sn)
		cfg := Config{}
		if name == "latency conflict" {
			cfg.RouterLatency = 1
		}
		if _, err := Restore(&sn, cfg); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
	}
	// Empty snapshot restores to an empty controller with the handle
	// counter preserved.
	empty := &Snapshot{Topology: base.Topology, NextHandle: 41}
	c, err := Restore(empty, Config{})
	if err != nil || c.Len() != 0 {
		t.Fatalf("empty restore: %v", err)
	}
	res, err := c.Admit(Spec{Src: 0, Dst: 1, Priority: 1, Period: 30, Length: 2})
	if err != nil || !res.Admitted || res.Handles[0] != 41 {
		t.Fatalf("handle counter not preserved: %v %+v", err, res)
	}
}

// TestEmptyReport: an empty controller reports exactly what the
// offline test reports for an empty set.
func TestEmptyReport(t *testing.T) {
	c, err := New(topology.NewMesh2D(3, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.DetermineFeasibility(&stream.Set{Topology: c.Topology()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Report(), fresh) {
		t.Fatalf("empty report differs: %+v vs %+v", c.Report(), fresh)
	}
}

// freshReport rebuilds the controller's surviving streams as a fresh
// set (admission order, canonical router) and runs the offline test.
func freshReport(c *Controller) (*core.Report, error) {
	set := &stream.Set{Topology: c.Topology()}
	sn, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	set.RouterLatency = sn.RouterLatency
	r, err := routing.ForTopology(c.Topology())
	if err != nil {
		return nil, err
	}
	for _, ss := range sn.Streams {
		if _, err := set.Add(r, topology.NodeID(ss.Src), topology.NodeID(ss.Dst),
			ss.Priority, ss.Period, ss.Length, ss.Deadline); err != nil {
			return nil, err
		}
	}
	return core.DetermineFeasibility(set)
}
