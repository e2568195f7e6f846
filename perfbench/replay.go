package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/stream"
)

// daemonReplay is the in-process replay of a traced daemon-churn
// window: the same lap steps, from the same restored state, through the
// calls the HTTP handlers make (admit.Controller, server.SaveSnapshot)
// and through the core calls the controller makes, each under its own
// span. The layers behind HTTP are timed here.
type daemonReplay struct {
	problems   []string
	mutations  int
	recomputed int
	stats      admit.Stats
	snapBytes  []float64
}

func replayDaemon(snapPath, persistPath string, lap []mutation, base writerState, ops []int, tr *tracer) (*daemonReplay, error) {
	ctl, ok, err := server.LoadSnapshot(snapPath, admit.Config{})
	if err != nil || !ok {
		return nil, fmt.Errorf("replay: load snapshot: %v (found %v)", err, ok)
	}
	cm, err := newCoreMirror(ctl)
	if err != nil {
		return nil, err
	}
	handles := append([]admit.Handle(nil), base.handles...)
	rp := &daemonReplay{}
	for k, li := range ops {
		if err := rp.step(ctl, cm, lap, handles, li, k, persistPath, tr); err != nil {
			rp.problems = append(rp.problems, fmt.Sprintf("op %d (lap step %d): %v", k, li, err))
			return rp, nil // later steps depend on this one
		}
		rp.mutations++
	}
	rp.stats = ctl.Stats()
	rep := ctl.Report()
	if len(rep.Verdicts) != len(cm.u) {
		rp.problems = append(rp.problems, fmt.Sprintf("core mirror holds %d bounds, controller %d", len(cm.u), len(rep.Verdicts)))
		return rp, nil
	}
	for i, v := range rep.Verdicts {
		if v.U != cm.u[i] {
			rp.problems = append(rp.problems, fmt.Sprintf("stream %d: core calls give U=%d, controller U=%d", i, cm.u[i], v.U))
			break
		}
	}
	return rp, nil
}

// step replays one lap step as the server would run it: controller
// call, snapshot persist, then a report read of the new state.
func (rp *daemonReplay) step(ctl *admit.Controller, cm *coreMirror, lap []mutation, handles []admit.Handle, li, k int, persistPath string, tr *tracer) error {
	m := lap[li]
	kind := "withdraw"
	if m.admit {
		kind = "admit"
	}
	root := tr.start("op."+kind, nil, k)
	defer root.end()
	s := tr.start("admit."+kind, root, k)
	if m.admit {
		res, err := ctl.Admit(m.spec)
		s.end()
		if err != nil {
			return err
		}
		if !res.Admitted {
			return fmt.Errorf("rejected: %s", res.Rejection)
		}
		handles[li] = res.Handles[0]
		rp.recomputed += res.Recomputed
		if err := cm.admit(m.spec, res.Handles[0], tr, root, k); err != nil {
			return err
		}
	} else {
		h := handles[m.ref]
		n, err := ctl.Withdraw(h)
		s.end()
		if err != nil {
			return err
		}
		rp.recomputed += n
		if err := cm.withdraw(h, tr, root, k); err != nil {
			return err
		}
	}
	s = tr.start("server.marshal", root, k)
	sn, err := ctl.Snapshot()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(sn, "", "  ")
	s.end()
	if err != nil {
		return err
	}
	rp.snapBytes = append(rp.snapBytes, float64(len(data)+1))
	s = tr.start("server.persist", root, k)
	err = server.SaveSnapshot(ctl, persistPath)
	s.end()
	if err != nil {
		return err
	}
	s = tr.start("admit.report", root, k)
	_, _ = ctl.Streams(), ctl.Report()
	s.end()
	return nil
}

// coreMirror repeats the controller's core calls on the same inputs:
// Extend, Dependents and CalUBatchParallel on an admission;
// Dependents, NewAnalyzer and CalUBatchParallel on a withdrawal.
type coreMirror struct {
	router  routing.Router
	set     *stream.Set
	a       *core.Analyzer
	u       []int
	handles []admit.Handle
}

func newCoreMirror(ctl *admit.Controller) (*coreMirror, error) {
	r, err := routing.ForTopology(ctl.Topology())
	if err != nil {
		return nil, err
	}
	m := &coreMirror{router: r, set: stream.NewSet(ctl.Topology())}
	for _, st := range ctl.Streams() {
		sp := st.Spec
		if _, err := m.set.Add(r, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
			return nil, err
		}
		m.handles = append(m.handles, st.Handle)
	}
	if m.a, err = core.NewAnalyzer(m.set); err != nil {
		return nil, err
	}
	for _, v := range ctl.Report().Verdicts {
		m.u = append(m.u, v.U)
	}
	return m, nil
}

func (m *coreMirror) admit(sp admit.Spec, h admit.Handle, tr *tracer, parent *span, op int) error {
	n := m.set.Len()
	cand := &stream.Set{Topology: m.set.Topology, RouterLatency: m.set.RouterLatency,
		Streams: append(make([]*stream.Stream, 0, n+1), m.set.Streams...)}
	if _, err := cand.Add(m.router, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
		return err
	}
	s := tr.start("core.extend", parent, op)
	a, err := m.a.Extend(cand)
	s.end()
	if err != nil {
		return err
	}
	s = tr.start("core.dependents", parent, op)
	dirty, err := a.Dependents(stream.ID(n))
	s.end()
	if err != nil {
		return err
	}
	s = tr.start("core.calu_batch", parent, op)
	us, err := a.CalUBatchParallel(dirty, 0)
	s.end()
	if err != nil {
		return err
	}
	u := append(append(make([]int, 0, n+1), m.u...), 0)
	for k, id := range dirty {
		u[id] = us[k]
	}
	m.set, m.a, m.u = cand, a, u
	m.handles = append(m.handles, h)
	return nil
}

func (m *coreMirror) withdraw(h admit.Handle, tr *tracer, parent *span, op int) error {
	idx := -1
	for i, x := range m.handles {
		if x == h {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("core mirror: no handle %d", h)
	}
	s := tr.start("core.dependents", parent, op)
	dirtyOld, err := m.a.Dependents(stream.ID(idx))
	s.end()
	if err != nil {
		return err
	}
	surv := &stream.Set{Topology: m.set.Topology, RouterLatency: m.set.RouterLatency}
	for i, st := range m.set.Streams {
		if i == idx {
			continue
		}
		if int(st.ID) != len(surv.Streams) {
			c := *st
			c.ID = stream.ID(len(surv.Streams))
			st = &c
		}
		surv.Streams = append(surv.Streams, st)
	}
	s = tr.start("core.new_analyzer", parent, op)
	a, err := core.NewAnalyzer(surv)
	s.end()
	if err != nil {
		return err
	}
	var dirty []stream.ID
	for _, id := range dirtyOld {
		switch {
		case int(id) < idx:
			dirty = append(dirty, id)
		case int(id) > idx:
			dirty = append(dirty, id-1)
		}
	}
	s = tr.start("core.calu_batch", parent, op)
	us, err := a.CalUBatchParallel(dirty, 0)
	s.end()
	if err != nil {
		return err
	}
	u := append(append(make([]int, 0, len(m.u)), m.u[:idx]...), m.u[idx+1:]...)
	for k, id := range dirty {
		u[id] = us[k]
	}
	m.set, m.a, m.u = surv, a, u
	m.handles = append(m.handles[:idx:idx], m.handles[idx+1:]...)
	return nil
}

// durByOp maps op id to the duration (ms) of the named spans.
func durByOp(spans []spanRecord, names ...string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out[s.Op] += float64(s.End-s.Start) / 1e6
			}
		}
	}
	return out
}

// layerMetrics fills the daemon's per-layer metrics from the spans of
// the traced window (HTTP) and of its replay (the layers behind it).
func (rp *daemonReplay) layerMetrics(spans []spanRecord, ph *phase, l map[string]float64) {
	by := selfMS(spans)
	l["server.persist_p50_ms"] = quantile(by["server.persist"], 0.5)
	l["server.persist_p99_ms"] = quantile(by["server.persist"], 0.99)
	l["server.marshal_ms"] = median(by["server.marshal"])
	l["server.snapshot_bytes"] = median(rp.snapBytes)
	l["admit.admit_p50_ms"] = quantile(by["admit.admit"], 0.5)
	l["admit.admit_p99_ms"] = quantile(by["admit.admit"], 0.99)
	l["admit.withdraw_p50_ms"] = quantile(by["admit.withdraw"], 0.5)
	l["admit.withdraw_p99_ms"] = quantile(by["admit.withdraw"], 0.99)
	l["admit.report_ms"] = median(by["admit.report"])
	if rp.mutations > 0 {
		l["admit.recomputed_per_op"] = float64(rp.recomputed) / float64(rp.mutations)
	}
	if t := rp.stats.Recomputed + rp.stats.Cached; t > 0 {
		l["admit.dirty_ratio"] = float64(rp.stats.Recomputed) / float64(t)
	}
	l["core.extend_ms"] = mean(by["core.extend"])
	l["core.dependents_ms"] = mean(by["core.dependents"])
	l["core.calu_batch_ms"] = mean(by["core.calu_batch"])
	l["core.calu_batch_p99_ms"] = quantile(by["core.calu_batch"], 0.99)
	l["core.new_analyzer_ms"] = mean(by["core.new_analyzer"])

	// HTTP round trip minus the in-process stages of the same op.
	stages := durByOp(spans, "admit.admit", "admit.withdraw", "server.persist")
	var over []float64
	for k, rtt := range ph.mutLat {
		if st, ok := stages[k]; ok {
			over = append(over, rtt-st)
		}
	}
	l["server.overhead_ms"] = median(over)
	l["server.read_overhead_ms"] = median(by["http.report"]) - median(by["admit.report"])
}

// printBreakdown splits the round trip of the median and the tail
// mutations into their stages: controller (with its core calls),
// persist, and the HTTP remainder.
func (rp *daemonReplay) printBreakdown(w io.Writer, spans []spanRecord, ph *phase) {
	ctl := durByOp(spans, "admit.admit", "admit.withdraw")
	persist := durByOp(spans, "server.persist")
	calu := durByOp(spans, "core.calu_batch")
	analyzer := durByOp(spans, "core.extend", "core.new_analyzer", "core.dependents")
	var ops []int
	for k := range ph.mutLat {
		if _, ok := ctl[k]; ok {
			ops = append(ops, k)
		}
	}
	if len(ops) == 0 {
		return
	}
	sort.Slice(ops, func(i, j int) bool { return ph.mutLat[ops[i]] < ph.mutLat[ops[j]] })
	band := func(label string, lo, hi float64) {
		sel := ops[int(lo*float64(len(ops))):max(int(lo*float64(len(ops)))+1, int(hi*float64(len(ops))))]
		var rtt, c, p, cu, an []float64
		for _, k := range sel {
			rtt = append(rtt, ph.mutLat[k])
			c = append(c, ctl[k])
			p = append(p, persist[k])
			cu = append(cu, calu[k])
			an = append(an, analyzer[k])
		}
		httpRest := mean(rtt) - mean(c) - mean(p)
		parts := map[string]float64{"admit (controller)": mean(c), "server.persist": mean(p), "server http remainder": httpRest}
		dom := ""
		for name, v := range parts {
			if dom == "" || v > parts[dom] || (v == parts[dom] && name < dom) {
				dom = name
			}
		}
		fmt.Fprintf(w, "breakdown %-9s n=%-5d rtt %.3f ms = admit %.3f (core.calu_batch %.3f, core analyzer %.3f) + persist %.3f + http %.3f; dominant: %s\n",
			label, len(sel), mean(rtt), mean(c), mean(cu), mean(an), mean(p), httpRest, dom)
	}
	band("p45-p55", 0.45, 0.55)
	band("p99-p100", 0.99, 1.0)
}
