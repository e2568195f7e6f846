package jobs

import (
	"strings"
	"testing"

	"repro/internal/place"
	"repro/internal/topology"
)

// pipelineJob builds an n-stage pipeline job with the given demand
// parameters.
func pipelineJob(name string, stages, prio, period, length, deadline int) Job {
	j := Job{Name: name, Graph: place.Problem{Tasks: stages}}
	for i := 0; i < stages-1; i++ {
		j.Graph.Demands = append(j.Graph.Demands, place.Demand{
			From: place.Task(i), To: place.Task(i + 1),
			Priority: prio, Period: period, Length: length, Deadline: deadline,
		})
	}
	return j
}

func newController(t *testing.T, w, h int) *Controller {
	t.Helper()
	c, err := NewController(topology.NewMesh2D(w, h))
	if err != nil {
		t.Fatal(err)
	}
	c.AnnealIterations = 1500
	return c
}

func TestAdmitAndRemove(t *testing.T) {
	c := newController(t, 4, 4)
	v, err := c.Admit(pipelineJob("video", 4, 2, 60, 12, 60))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admitted {
		t.Fatalf("rejected: %s", v.Reason)
	}
	if v.FreeAfter != 12 {
		t.Fatalf("free after = %d", v.FreeAfter)
	}
	if got := len(c.FreeNodes()); got != 12 {
		t.Fatalf("free nodes = %d", got)
	}
	v2, err := c.Admit(pipelineJob("control", 3, 3, 40, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Admitted {
		t.Fatalf("second job rejected: %s", v2.Reason)
	}
	if got := c.Jobs(); len(got) != 2 || got[0] != "video" || got[1] != "control" {
		t.Fatalf("jobs = %v", got)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("combined traffic should be feasible")
	}
	if err := c.Remove("video"); err != nil {
		t.Fatal(err)
	}
	if got := len(c.FreeNodes()); got != 13 {
		t.Fatalf("free nodes after removal = %d", got)
	}
	if err := c.Remove("video"); err == nil {
		t.Fatal("double removal accepted")
	}
}

func TestAdmitRejectsWhenNoNodes(t *testing.T) {
	c := newController(t, 2, 2)
	v, err := c.Admit(pipelineJob("big", 5, 1, 50, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	if v.Admitted || !strings.Contains(v.Reason, "only 4 free") {
		t.Fatalf("verdict: %+v", v)
	}
}

func TestAdmitRejectsInfeasibleAndRollsBack(t *testing.T) {
	c := newController(t, 4, 4)
	v, err := c.Admit(pipelineJob("hog", 2, 2, 20, 16, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admitted {
		t.Fatalf("hog rejected: %s", v.Reason)
	}
	// Second job: its 10-flit messages cannot make a 5-flit-time
	// deadline even on adjacent nodes (L >= 10), so the combined test
	// must fail no matter where it is placed.
	v2, err := c.Admit(pipelineJob("tight", 3, 1, 20, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Admitted {
		t.Fatal("tight job should be rejected (blocked by the hog)")
	}
	if v2.Reason != "combined traffic infeasible" {
		t.Fatalf("reason: %s", v2.Reason)
	}
	// Rollback: the controller still has only the hog.
	if got := c.Jobs(); len(got) != 1 || got[0] != "hog" {
		t.Fatalf("jobs after rollback = %v", got)
	}
	rep, err := c.Report()
	if err != nil || !rep.Feasible {
		t.Fatalf("running system disturbed: %v %v", rep, err)
	}
}

func TestAdmitValidation(t *testing.T) {
	c := newController(t, 3, 3)
	if _, err := c.Admit(Job{Name: ""}); err == nil {
		t.Error("accepted empty name")
	}
	if _, err := c.Admit(Job{Name: "bad", Graph: place.Problem{Tasks: 0}}); err == nil {
		t.Error("accepted invalid graph")
	}
	if v, err := c.Admit(pipelineJob("a", 2, 1, 50, 2, 50)); err != nil || !v.Admitted {
		t.Fatal("first admit failed")
	}
	if _, err := c.Admit(pipelineJob("a", 2, 1, 50, 2, 50)); err == nil {
		t.Error("accepted duplicate name")
	}
}

func TestEmptyControllerReport(t *testing.T) {
	c := newController(t, 3, 3)
	rep, err := c.Report()
	if err != nil || !rep.Feasible {
		t.Fatal("empty controller should be trivially feasible")
	}
	set, owners, err := c.Snapshot()
	if err != nil || set.Len() != 0 || len(owners) != 0 {
		t.Fatal("empty snapshot wrong")
	}
}

func TestSnapshotOwners(t *testing.T) {
	c := newController(t, 4, 4)
	if v, _ := c.Admit(pipelineJob("x", 3, 1, 80, 4, 80)); !v.Admitted {
		t.Fatal("x rejected")
	}
	if v, _ := c.Admit(pipelineJob("y", 2, 2, 80, 4, 80)); !v.Admitted {
		t.Fatal("y rejected")
	}
	set, owners, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 || len(owners) != 3 {
		t.Fatalf("snapshot: %d streams, %d owners", set.Len(), len(owners))
	}
	if owners[0] != "x" || owners[1] != "x" || owners[2] != "y" {
		t.Fatalf("owners = %v", owners)
	}
}

func TestUtilizationString(t *testing.T) {
	c := newController(t, 4, 4)
	if v, _ := c.Admit(pipelineJob("app", 3, 1, 80, 4, 80)); !v.Admitted {
		t.Fatal("rejected")
	}
	out := c.Utilization()
	if !strings.Contains(out, "app") || !strings.Contains(out, "3 nodes") || !strings.Contains(out, "3/16 nodes") {
		t.Fatalf("utilization: %s", out)
	}
}

// TestAdmissionFillsMachine: jobs keep being admitted until nodes run
// out; every intermediate state stays feasible.
func TestAdmissionFillsMachine(t *testing.T) {
	c := newController(t, 4, 4)
	admitted := 0
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		v, err := c.Admit(pipelineJob(name, 3, 1+i%3, 100, 6, 100))
		if err != nil {
			t.Fatal(err)
		}
		if v.Admitted {
			admitted++
			rep, err := c.Report()
			if err != nil || !rep.Feasible {
				t.Fatalf("system infeasible after admitting %s", name)
			}
		}
	}
	// 16 nodes / 3 tasks = at most 5 jobs.
	if admitted == 0 || admitted > 5 {
		t.Fatalf("admitted %d jobs", admitted)
	}
	if len(c.FreeNodes()) != 16-admitted*3 {
		t.Fatalf("free nodes accounting wrong: %d", len(c.FreeNodes()))
	}
}
