// Package admit implements online admission control over the paper's
// feasibility analysis: a concurrency-safe Controller owns a live
// stream set, answers admit/withdraw requests incrementally, and
// publishes each commit as an immutable State that readers load
// without waiting on a mutation.
//
// The paper frames Determine-Feasibility as a static, offline test,
// but its data structures say exactly which streams a change can
// affect: stream j's delay upper bound U_j is a function of HP_j
// alone, and adding or removing stream s can alter HP_j only when s is
// a member of it (core.Dependents). The controller exploits that on
// every mutation — it rebuilds the HP sets (cheap, see
// docs/PERFORMANCE.md), recomputes U only for the BDG-reachable dirty
// set through the pooled parallel Cal_U path, and keeps every other
// stream's bound cached. An admission that would break any deadline —
// the newcomer's or a victim's — rolls back without disturbing the
// running system and returns a structured Rejection naming the
// violated stream and its U versus its deadline.
//
// The differential battery in differential_test.go pins the central
// invariant: after any admit/withdraw sequence, Report is
// byte-identical to a fresh core.DetermineFeasibility over the
// surviving streams.
package admit

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Spec describes one stream to admit. Deadline 0 defaults to Period,
// matching stream.Set.Add.
type Spec struct {
	Src, Dst topology.NodeID
	Priority int
	Period   int
	Length   int
	Deadline int
}

// Handle is a stable token for one admitted stream. Handles survive
// withdrawals of other streams (unlike stream IDs, which stay dense)
// and snapshot/restore cycles. Zero is never a valid handle.
type Handle int64

// Admitted pairs a live stream's handle with its spec and its current
// (dense) ID within the controller's set.
type Admitted struct {
	Handle Handle
	ID     stream.ID
	Spec   Spec
}

// Rejection explains an infeasible admission: the stream whose bound
// broke its deadline, identified by its ID within the tentative
// combined set and — when it was already admitted rather than one of
// the candidates — by its handle.
type Rejection struct {
	Stream   stream.ID `json:"stream"`
	Handle   Handle    `json:"handle,omitempty"`
	New      bool      `json:"new"` // the violated stream was among the candidates
	U        int       `json:"u"`   // -1: no bound within the deadline
	Deadline int       `json:"deadline"`
}

func (r *Rejection) String() string {
	who := fmt.Sprintf("admitted stream %d (handle %d)", r.Stream, r.Handle)
	if r.New {
		who = fmt.Sprintf("candidate stream %d", r.Stream)
	}
	if r.U < 0 {
		return fmt.Sprintf("%s: no delay bound within deadline %d", who, r.Deadline)
	}
	return fmt.Sprintf("%s: U=%d exceeds deadline %d", who, r.U, r.Deadline)
}

// Result is the outcome of one admission attempt.
type Result struct {
	Admitted   bool
	Handles    []Handle     // one per candidate, set when admitted
	Rejection  *Rejection   // set when not admitted
	Report     *core.Report // feasibility over the tentative combined set
	Recomputed int          // bounds recomputed for this attempt
}

// Stats are the controller's monotonic counters.
type Stats struct {
	Admitted   int64 // streams admitted
	Rejected   int64 // admission attempts rejected as infeasible
	Withdrawn  int64 // streams withdrawn
	Recomputed int64 // delay bounds recomputed across all mutations
	Cached     int64 // bounds served from cache across all mutations
}

// Config tunes a Controller. The zero value is ready for production
// use.
type Config struct {
	// Workers is the recompute pool width; <= 0 uses GOMAXPROCS.
	Workers int
	// RouterLatency is the per-hop router pipeline depth shared by the
	// machine (0 = the paper's single-cycle model).
	RouterLatency int
	// Router overrides the topology's canonical deterministic router
	// (nil = canonical). The design-space explorer uses it to sweep
	// routing policies (X-Y versus Y-X on a mesh) through the same
	// admission path. Snapshots do not record the override: Restore
	// re-routes with the restoring controller's own router, so a
	// controller with a non-canonical Router should not be restored
	// from a canonical snapshot or vice versa.
	Router routing.Router
}

// State is one committed state of a Controller. Every commit publishes
// a new State and a published State is never modified, so one State is
// always a consistent view: Report.Verdicts[i] belongs to Streams[i].
// Callers share it and must not modify it either.
type State struct {
	Streams    []Admitted   // admission order; Streams[i].ID == i
	Report     *core.Report // feasibility over Streams, from cached bounds
	Stats      Stats
	NextHandle Handle

	set      *stream.Set    // the set the next mutation starts from
	analyzer *core.Analyzer // over set
}

// Controller is a live admission controller. All methods are safe for
// concurrent use: mutations serialize on mu and publish a new State;
// reads load the committed State and never wait on a mutation.
type Controller struct {
	topo   topology.Topology
	router routing.Router
	cfg    Config

	mu    sync.Mutex // taken by writers only
	state atomic.Pointer[State]
}

// New returns an empty controller over t using its canonical
// deterministic router, or cfg.Router when set.
func New(t topology.Topology, cfg Config) (*Controller, error) {
	r := cfg.Router
	if r == nil {
		var err error
		if r, err = routing.ForTopology(t); err != nil {
			return nil, err
		}
	}
	if cfg.RouterLatency < 0 {
		return nil, fmt.Errorf("admit: negative router latency %d", cfg.RouterLatency)
	}
	set := &stream.Set{Topology: t, RouterLatency: cfg.RouterLatency}
	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	c := &Controller{topo: t, router: r, cfg: cfg}
	c.state.Store(&State{Report: core.NewReport(set, nil), NextHandle: 1, set: set, analyzer: a})
	return c, nil
}

// Topology returns the machine the controller manages.
func (c *Controller) Topology() topology.Topology { return c.topo }

// State returns the committed state.
func (c *Controller) State() *State { return c.state.Load() }

// Len returns the number of admitted streams.
func (c *Controller) Len() int { return len(c.State().Streams) }

// Stats returns the committed counters.
func (c *Controller) Stats() Stats { return c.State().Stats }

// Streams returns the admitted streams in admission order, shared with
// the committed State.
func (c *Controller) Streams() []Admitted { return c.State().Streams }

// Report returns the feasibility report over the admitted streams,
// shared with the committed State. It is assembled from the cached
// bounds and byte-identical to a fresh core.DetermineFeasibility on the
// same set.
func (c *Controller) Report() *core.Report { return c.State().Report }

// Admit attempts to admit one stream; see AdmitBatch.
func (c *Controller) Admit(sp Spec) (*Result, error) {
	return c.AdmitBatch([]Spec{sp})
}

// AdmitBatch atomically admits a batch of streams: either every
// candidate joins the running set (and every deadline — old and new —
// still holds), or nothing but the counters changes and the Result
// carries the Rejection. Admission order within the batch follows
// specs order. Result.Report is shared with the committed State.
func (c *Controller) AdmitBatch(specs []Spec) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("admit: empty batch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	handles := make([]Handle, len(specs))
	for k := range handles {
		handles[k] = st.NextHandle + Handle(k)
	}
	res, next, err := c.admit(st, specs, handles)
	if err != nil {
		return nil, err
	}
	c.state.Store(next)
	return res, nil
}

// admit tests specs, to be admitted under handles, against st. It
// returns the result and the State to commit: st extended by the
// candidates when every deadline holds, otherwise a copy of st with
// only the counters changed.
func (c *Controller) admit(st *State, specs []Spec, handles []Handle) (*Result, *State, error) {
	n := st.set.Len()
	cand := &stream.Set{
		Topology:      c.topo,
		RouterLatency: st.set.RouterLatency,
		Streams:       make([]*stream.Stream, n, n+len(specs)),
	}
	copy(cand.Streams, st.set.Streams)
	streams := make([]Admitted, n, n+len(specs))
	copy(streams, st.Streams)
	newIDs := make([]stream.ID, len(specs))
	nextHandle := st.NextHandle
	for k, sp := range specs {
		path, err := c.router.Route(sp.Src, sp.Dst)
		if err != nil {
			return nil, nil, fmt.Errorf("admit: candidate %d: %w", k, err)
		}
		if sp.Deadline == 0 {
			sp.Deadline = sp.Period
		}
		// Cal_U lays a stream's timing diagram out up to its deadline
		// when no bound turns up sooner, so the deadline sizes every
		// row of that diagram: 2^62 panics the allocator, 2^33 costs
		// a GiB per row.
		if sp.Deadline > core.MaxSearchHorizon {
			return nil, nil, fmt.Errorf("admit: candidate %d: deadline %d exceeds the analysis horizon cap %d",
				k, sp.Deadline, core.MaxSearchHorizon)
		}
		newIDs[k] = stream.ID(n + k)
		cand.Streams = append(cand.Streams, &stream.Stream{
			ID:       newIDs[k],
			Src:      sp.Src,
			Dst:      sp.Dst,
			Priority: sp.Priority,
			Period:   sp.Period,
			Length:   sp.Length,
			Deadline: sp.Deadline,
			Latency:  stream.NetworkLatencyWithRouter(path.Hops(), sp.Length, cand.RouterLatency),
			Path:     path,
		})
		streams = append(streams, Admitted{Handle: handles[k], ID: newIDs[k], Spec: sp})
		nextHandle = max(nextHandle, handles[k]+1)
	}

	// The candidate analyzer validates the combined set (bad parameters
	// surface here) and carries the HP sets the dirty set is read from;
	// it warm-starts the HP fixpoint from the committed analyzer.
	a, err := st.analyzer.Extend(cand)
	if err != nil {
		return nil, nil, fmt.Errorf("admit: %w", err)
	}
	dirty, err := a.Dependents(newIDs...)
	if err != nil {
		return nil, nil, err
	}
	us, err := a.CalUBatchParallel(dirty, c.cfg.Workers)
	if err != nil {
		return nil, nil, err
	}

	// Merge cached and recomputed bounds; candidates are always dirty
	// (every HP set contains its owner), so every slot is filled.
	u := make([]int, cand.Len())
	for i, v := range st.Report.Verdicts {
		u[i] = v.U
	}
	for k, id := range dirty {
		u[id] = us[k]
	}

	res := &Result{Report: core.NewReport(cand, u), Recomputed: len(dirty)}
	next := *st
	next.Stats.Recomputed += int64(len(dirty))
	next.Stats.Cached += int64(cand.Len() - len(dirty))

	if !res.Report.Feasible {
		// Roll back: the candidate state is never published. Name the
		// first violated stream.
		for _, v := range res.Report.Verdicts {
			if v.Feasible {
				continue
			}
			res.Rejection = &Rejection{Stream: v.ID, U: v.U, Deadline: v.Deadline}
			if int(v.ID) < n {
				res.Rejection.Handle = st.Streams[v.ID].Handle
			} else {
				res.Rejection.New = true
			}
			break
		}
		next.Stats.Rejected++
		return res, &next, nil
	}

	res.Admitted = true
	res.Handles = handles
	next.Streams, next.Report, next.NextHandle = streams, res.Report, nextHandle
	next.set, next.analyzer = cand, a
	next.Stats.Admitted += int64(len(specs))
	return res, &next, nil
}

// Withdraw atomically removes the given streams, recomputing only the
// bounds their departure can change. It returns the number of bounds
// recomputed. Withdrawal can break feasibility: with indirect HP
// elements a bound can rise when interference falls (in §5 pool 1,
// removing stream 15 raises stream 7's U from 260 to 1574; ROADMAP
// item 1), and Withdraw commits the recomputed report as it is, an
// infeasible verdict included.
func (c *Controller) Withdraw(handles ...Handle) (int, error) {
	if len(handles) == 0 {
		return 0, fmt.Errorf("admit: empty withdrawal")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()

	n := len(st.Streams)
	leaving := make([]bool, n)
	ids := make([]stream.ID, 0, len(handles))
	for _, h := range handles {
		i := slices.IndexFunc(st.Streams, func(ad Admitted) bool { return ad.Handle == h })
		if i < 0 {
			return 0, fmt.Errorf("admit: no stream with handle %d", h)
		}
		if leaving[i] {
			return 0, fmt.Errorf("admit: handle %d repeated", h)
		}
		leaving[i] = true
		ids = append(ids, stream.ID(i))
	}

	// Dirty set read off the committed HP sets (the ones still
	// containing the leaving streams), then mapped to the compacted ID
	// space.
	dirtyOld, err := st.analyzer.Dependents(ids...)
	if err != nil {
		return 0, err
	}

	survivors := &stream.Set{
		Topology:      c.topo,
		RouterLatency: st.set.RouterLatency,
		Streams:       make([]*stream.Stream, 0, n-len(ids)),
	}
	streams := make([]Admitted, 0, n-len(ids))
	u := make([]int, 0, n-len(ids))
	newIdx := make([]int, n) // old index -> new index, -1 when leaving
	for i, s := range st.set.Streams {
		if leaving[i] {
			newIdx[i] = -1
			continue
		}
		id := stream.ID(len(survivors.Streams))
		newIdx[i] = int(id)
		if s.ID != id {
			s2 := *s
			s2.ID = id
			s = &s2
		}
		survivors.Streams = append(survivors.Streams, s)
		ad := st.Streams[i]
		ad.ID = id
		streams = append(streams, ad)
		u = append(u, st.Report.Verdicts[i].U)
	}

	a, err := core.NewAnalyzer(survivors)
	if err != nil {
		return 0, fmt.Errorf("admit: %w", err)
	}
	dirty := make([]stream.ID, 0, len(dirtyOld))
	for _, id := range dirtyOld {
		if ni := newIdx[id]; ni >= 0 {
			dirty = append(dirty, stream.ID(ni))
		}
	}
	us, err := a.CalUBatchParallel(dirty, c.cfg.Workers)
	if err != nil {
		return 0, err
	}
	for k, id := range dirty {
		u[id] = us[k]
	}

	next := *st
	next.Streams, next.Report = streams, core.NewReport(survivors, u)
	next.set, next.analyzer = survivors, a
	next.Stats.Withdrawn += int64(len(handles))
	next.Stats.Recomputed += int64(len(dirty))
	next.Stats.Cached += int64(survivors.Len() - len(dirty))
	c.state.Store(&next)
	return len(dirty), nil
}
