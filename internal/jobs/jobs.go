// Package jobs implements the host processor's job-management role
// from the paper's system model (§2, Figure 1): "the host processor is
// in charge of overall system management such as job scheduling, node
// allocation, and schedulability testing of real-time jobs".
//
// A Controller owns a topology and admits real-time jobs one at a
// time. Each job is a task graph with periodic communication demands;
// admission places the job's tasks on free nodes (greedy + annealing,
// package place), merges its streams with everything already running,
// and runs the paper's feasibility test over the combined traffic. A
// job is admitted only when every stream — new and old — keeps its
// delay bound within its deadline; otherwise the admission rolls back
// and the running system is untouched.
//
// The feasibility machinery is delegated to an internal
// admit.Controller, so per-job admissions recompute only the delay
// bounds the new streams can affect; verdicts are identical to a full
// offline test (package admit's differential battery pins this).
package jobs

import (
	"fmt"
	"sort"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Job is one real-time application to admit: a named task graph.
type Job struct {
	Name  string
	Graph place.Problem
}

// Placement records an admitted job.
type Placement struct {
	Job        Job
	Assignment place.Assignment
}

// Controller manages node allocation and admission control for one
// machine. It is not safe for concurrent use (the host processor of
// the paper is a single coordinator).
type Controller struct {
	topo   topology.Topology
	router routing.Router
	used   map[topology.NodeID]string // node -> job name
	jobs   map[string]*Placement
	order  []string // admission order, for deterministic stream layout

	// ac holds the live combined stream set; handles maps each job to
	// its streams inside ac, in demand order.
	ac      *admit.Controller
	handles map[string][]admit.Handle

	// AnnealIterations tunes the placement refinement (default 3000).
	AnnealIterations int
}

// NewController returns a controller over t using its canonical
// deterministic router.
func NewController(t topology.Topology) (*Controller, error) {
	r, err := routing.ForTopology(t)
	if err != nil {
		return nil, err
	}
	ac, err := admit.New(t, admit.Config{})
	if err != nil {
		return nil, err
	}
	return &Controller{
		topo:    t,
		router:  r,
		used:    make(map[topology.NodeID]string),
		jobs:    make(map[string]*Placement),
		ac:      ac,
		handles: make(map[string][]admit.Handle),
	}, nil
}

// specsFor converts a placed job's demands into admission specs, in
// demand order.
func specsFor(job Job, assign place.Assignment) []admit.Spec {
	specs := make([]admit.Spec, len(job.Graph.Demands))
	for i, d := range job.Graph.Demands {
		specs[i] = admit.Spec{
			Src: assign[d.From], Dst: assign[d.To],
			Priority: d.Priority, Period: d.Period,
			Length: d.Length, Deadline: d.Deadline,
		}
	}
	return specs
}

// FreeNodes returns the unallocated nodes in ascending order.
func (c *Controller) FreeNodes() []topology.NodeID {
	var out []topology.NodeID
	for n := 0; n < c.topo.Nodes(); n++ {
		if _, taken := c.used[topology.NodeID(n)]; !taken {
			out = append(out, topology.NodeID(n))
		}
	}
	return out
}

// Jobs returns the names of the admitted jobs in admission order.
func (c *Controller) Jobs() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Snapshot builds the combined stream set of every admitted job, in
// admission order. The second return value maps each stream index to
// its job name.
func (c *Controller) Snapshot() (*stream.Set, []string, error) {
	set := stream.NewSet(c.topo)
	var owner []string
	for _, name := range c.order {
		p := c.jobs[name]
		for _, d := range p.Job.Graph.Demands {
			if _, err := set.Add(c.router, p.Assignment[d.From], p.Assignment[d.To],
				d.Priority, d.Period, d.Length, d.Deadline); err != nil {
				return nil, nil, fmt.Errorf("jobs: rebuilding %s: %w", name, err)
			}
			owner = append(owner, name)
		}
	}
	return set, owner, nil
}

// Verdict is the outcome of an admission attempt.
type Verdict struct {
	Admitted   bool
	Reason     string
	Placement  *Placement   // set when admitted
	Report     *core.Report // feasibility over the combined traffic
	FreeBefore int
	FreeAfter  int
}

// Admit attempts to admit job: place its tasks on free nodes, test the
// combined traffic, commit on success. On rejection the controller is
// unchanged.
func (c *Controller) Admit(job Job) (*Verdict, error) {
	if job.Name == "" {
		return nil, fmt.Errorf("jobs: job needs a name")
	}
	if _, dup := c.jobs[job.Name]; dup {
		return nil, fmt.Errorf("jobs: job %q already admitted", job.Name)
	}
	if err := job.Graph.Validate(); err != nil {
		return nil, err
	}
	free := c.FreeNodes()
	v := &Verdict{FreeBefore: len(free), FreeAfter: len(free)}
	if job.Graph.Tasks > len(free) {
		v.Reason = fmt.Sprintf("needs %d nodes, only %d free", job.Graph.Tasks, len(free))
		return v, nil
	}
	assign, err := place.GreedyOn(job.Graph, c.topo, c.router, free)
	if err != nil {
		return nil, err
	}
	iters := c.AnnealIterations
	if iters == 0 {
		iters = 3000
	}
	assign, err = place.AnnealOn(job.Graph, c.topo, c.router, assign, free,
		place.AnnealConfig{Seed: int64(len(c.order)) + 1, Iterations: iters})
	if err != nil {
		return nil, err
	}

	// Admit the job's streams as one atomic batch: the admission
	// controller tests the combined traffic (recomputing only the
	// bounds the new streams can affect) and commits nothing on
	// rejection, so rollback is free.
	specs := specsFor(job, assign)
	var jobHandles []admit.Handle
	if len(specs) > 0 {
		res, err := c.ac.AdmitBatch(specs)
		if err != nil {
			return nil, err
		}
		v.Report = res.Report
		if !res.Admitted {
			v.Reason = "combined traffic infeasible"
			return v, nil
		}
		jobHandles = res.Handles
	} else {
		v.Report = c.reportCompat()
	}
	c.jobs[job.Name] = &Placement{Job: job, Assignment: assign}
	c.order = append(c.order, job.Name)
	c.handles[job.Name] = jobHandles
	for _, n := range assign {
		c.used[n] = job.Name
	}
	v.Admitted = true
	v.Placement = c.jobs[job.Name]
	v.FreeAfter = len(free) - job.Graph.Tasks
	return v, nil
}

func (c *Controller) rollback(name string) {
	delete(c.jobs, name)
	delete(c.handles, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Remove evicts an admitted job, freeing its nodes and withdrawing its
// streams. The admission controller recomputes the affected bounds
// incrementally. Removing streams lowers interference, but a bound can
// still rise (admit.Controller.Withdraw; ROADMAP item 1), so the
// remaining traffic is not guaranteed to stay feasible.
func (c *Controller) Remove(name string) error {
	p, ok := c.jobs[name]
	if !ok {
		return fmt.Errorf("jobs: no job %q", name)
	}
	if hs := c.handles[name]; len(hs) > 0 {
		if _, err := c.ac.Withdraw(hs...); err != nil {
			return fmt.Errorf("jobs: removing %s: %w", name, err)
		}
	}
	for _, n := range p.Assignment {
		delete(c.used, n)
	}
	c.rollback(name)
	return nil
}

// Report returns the feasibility verdicts over the currently admitted
// traffic, served from the admission controller's cached bounds —
// byte-identical to a fresh core.DetermineFeasibility over the
// combined set.
func (c *Controller) Report() (*core.Report, error) {
	return c.reportCompat(), nil
}

// reportCompat preserves the historical empty-set shape (nil verdict
// slice) while delegating everything else to the admission controller.
func (c *Controller) reportCompat() *core.Report {
	if c.ac.Len() == 0 {
		return &core.Report{Feasible: true}
	}
	return c.ac.Report()
}

// Utilization summarises node usage per job.
func (c *Controller) Utilization() string {
	type row struct {
		name  string
		nodes int
	}
	var rows []row
	for name, p := range c.jobs {
		rows = append(rows, row{name, len(p.Assignment)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	out := fmt.Sprintf("jobs: %d admitted, %d/%d nodes allocated\n", len(rows), len(c.used), c.topo.Nodes())
	for _, r := range rows {
		out += fmt.Sprintf("  %-16s %d nodes\n", r.name, r.nodes)
	}
	return out
}
