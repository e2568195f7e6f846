package admit

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/topology"
)

// SnapshotStream is the JSON form of one admitted stream.
type SnapshotStream struct {
	Handle   Handle `json:"handle"`
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Priority int    `json:"priority"`
	Period   int    `json:"period"`
	Length   int    `json:"length"`
	Deadline int    `json:"deadline"`
}

// StreamOf is the JSON form of a stream admitted under handle h.
func StreamOf(h Handle, sp Spec) SnapshotStream {
	return SnapshotStream{
		Handle: h,
		Src:    int(sp.Src), Dst: int(sp.Dst),
		Priority: sp.Priority, Period: sp.Period,
		Length: sp.Length, Deadline: sp.Deadline,
	}
}

// Spec is the stream's admission request.
func (ss SnapshotStream) Spec() Spec {
	return Spec{
		Src: topology.NodeID(ss.Src), Dst: topology.NodeID(ss.Dst),
		Priority: ss.Priority, Period: ss.Period,
		Length: ss.Length, Deadline: ss.Deadline,
	}
}

// Snapshot is the serializable state of a Controller: the machine and
// the admitted streams in admission order, with their handles. Bounds
// are not stored — Restore recomputes them, so a snapshot can never
// smuggle in stale or hand-edited verdicts.
type Snapshot struct {
	Topology      stream.TopologySpec `json:"topology"`
	RouterLatency int                 `json:"routerLatency,omitempty"`
	NextHandle    Handle              `json:"nextHandle"`
	Streams       []SnapshotStream    `json:"streams"`
}

// Snapshot captures the controller's committed state.
func (c *Controller) Snapshot() (*Snapshot, error) {
	st := c.State()
	ts, err := stream.SpecForTopology(c.topo)
	if err != nil {
		return nil, fmt.Errorf("admit: %w", err)
	}
	sn := &Snapshot{
		Topology:      ts,
		RouterLatency: st.set.RouterLatency,
		NextHandle:    st.NextHandle,
		Streams:       make([]SnapshotStream, len(st.Streams)),
	}
	for i, ad := range st.Streams {
		sn.Streams[i] = StreamOf(ad.Handle, ad.Spec)
	}
	return sn, nil
}

// Restore rebuilds a controller from a snapshot: it admits every
// stream in one batch under its recorded handle (recomputing all
// bounds — the restored report is exactly a fresh full analysis). A
// snapshot whose traffic no longer passes the feasibility test — a
// corrupt or hand-edited file — is refused rather than partially
// loaded.
func Restore(sn *Snapshot, cfg Config) (*Controller, error) {
	topo, err := sn.Topology.Build()
	if err != nil {
		return nil, fmt.Errorf("admit: restore: %w", err)
	}
	if cfg.RouterLatency != 0 && cfg.RouterLatency != sn.RouterLatency {
		return nil, fmt.Errorf("admit: restore: snapshot router latency %d conflicts with configured %d",
			sn.RouterLatency, cfg.RouterLatency)
	}
	cfg.RouterLatency = sn.RouterLatency
	c, err := New(topo, cfg)
	if err != nil {
		return nil, fmt.Errorf("admit: restore: %w", err)
	}
	seen := make(map[Handle]bool, len(sn.Streams))
	specs := make([]Spec, len(sn.Streams))
	handles := make([]Handle, len(sn.Streams))
	for i, ss := range sn.Streams {
		if ss.Handle <= 0 {
			return nil, fmt.Errorf("admit: restore: stream %d has invalid handle %d", i, ss.Handle)
		}
		if seen[ss.Handle] {
			return nil, fmt.Errorf("admit: restore: handle %d repeated", ss.Handle)
		}
		seen[ss.Handle] = true
		handles[i] = ss.Handle
		specs[i] = ss.Spec()
	}
	res, st, err := c.admit(c.State(), specs, handles)
	if err != nil {
		// admit's "candidate %d" indexes specs, which is the snapshot's
		// stream order — the error already names the stream.
		return nil, fmt.Errorf("admit: restore: %w", err)
	}
	if !res.Admitted {
		rej := res.Rejection
		who := fmt.Sprintf("stream %d", rej.Stream)
		if i := int(rej.Stream); i >= 0 && i < len(sn.Streams) {
			ss := sn.Streams[i]
			who = fmt.Sprintf("stream %d (handle %d, %d->%d)", i, ss.Handle, ss.Src, ss.Dst)
		}
		return nil, fmt.Errorf("admit: restore: snapshot traffic infeasible at %s: %s", who, rej)
	}
	// Restore is a boot-time reconstruction, not live traffic: the
	// counters restart from zero rather than double-counting admissions
	// that happened in a previous life. st is not yet published.
	st.Stats = Stats{}
	st.NextHandle = max(st.NextHandle, sn.NextHandle)
	c.state.Store(st)
	return c, nil
}

// ResetStats zeroes the committed counters. A boot that rebuilds its
// state by replaying past commits calls it, so that, as after Restore,
// the counters count live traffic only.
func (c *Controller) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.state.Load()
	next.Stats = Stats{}
	c.state.Store(&next)
}
