package main

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mc"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
)

// checkMirror fails unless the daemon lists exactly the streams the
// writer saw committed, in admission order, with the same handles.
func checkMirror(mirror []liveStream, got []server.StreamInfo) error {
	if len(got) != len(mirror) {
		return fmt.Errorf("daemon lists %d streams, writer mirror holds %d", len(got), len(mirror))
	}
	for i, m := range mirror {
		g := got[i]
		want := server.StreamInfo{
			Handle: m.Handle, ID: i, Src: int(m.Spec.Src), Dst: int(m.Spec.Dst),
			Priority: m.Spec.Priority, Period: m.Spec.Period, Length: m.Spec.Length, Deadline: m.Spec.Deadline,
		}
		if want.Deadline == 0 {
			want.Deadline = want.Period
		}
		if g != want {
			return fmt.Errorf("stream %d: daemon lists %+v, writer mirror expects %+v", i, g, want)
		}
	}
	return nil
}

// checkReport fails unless the daemon's report equals
// core.DetermineFeasibility run fresh over the listed stream set on the
// daemon's 10×10 mesh.
func checkReport(streams []server.StreamInfo, got server.ReportResponse) error {
	mesh := topology.NewMesh2D(10, 10)
	r, err := routing.ForTopology(mesh)
	if err != nil {
		return err
	}
	set := stream.NewSet(mesh)
	for _, s := range streams {
		if _, err := set.Add(r, topology.NodeID(s.Src), topology.NodeID(s.Dst), s.Priority, s.Period, s.Length, s.Deadline); err != nil {
			return fmt.Errorf("rebuilding stream set: %w", err)
		}
	}
	want, err := core.DetermineFeasibility(set)
	if err != nil {
		return fmt.Errorf("fresh analysis: %w", err)
	}
	if got.Streams != len(streams) || len(got.Verdicts) != len(want.Verdicts) || got.Feasible != want.Feasible {
		return fmt.Errorf("report: %d streams, %d verdicts, feasible %v; fresh analysis: %d verdicts, feasible %v",
			got.Streams, len(got.Verdicts), got.Feasible, len(want.Verdicts), want.Feasible)
	}
	for i, v := range want.Verdicts {
		w := server.VerdictResponse{ID: int(v.ID), Handle: streams[i].Handle, U: v.U, Deadline: v.Deadline, Feasible: v.Feasible}
		if got.Verdicts[i] != w {
			return fmt.Errorf("report verdict %d is %+v, fresh analysis gives %+v", i, got.Verdicts[i], w)
		}
	}
	return nil
}

// checkTables counts the trials of a pass whose ratio table differs
// from the reference pass, naming the first.
func checkTables(ref, got []*exp.TableResult) (int, error) {
	bad := 0
	var first error
	for t := range ref {
		if t >= len(got) {
			bad += len(ref[t].Trials)
			first = fmt.Errorf("pass has %d tables, first pass %d", len(got), len(ref))
			continue
		}
		badT := 0
		for i, want := range ref[t].Trials {
			if i >= len(got[t].Trials) || !reflect.DeepEqual(got[t].Trials[i], want) {
				badT++
				if first == nil {
					first = fmt.Errorf("%s trial %d: ratio table differs from the first pass", ref[t].Spec.Name, i)
				}
			}
		}
		if badT == 0 && !reflect.DeepEqual(got[t].Rows, ref[t].Rows) {
			badT = 1
			if first == nil {
				first = fmt.Errorf("%s: averaged rows differ from the first pass", ref[t].Spec.Name)
			}
		}
		bad += badT
	}
	return bad, first
}

// checkReplications counts the replications of a pass that differ from
// the reference pass, naming the first.
func checkReplications(ref, got *mc.Result) (int, error) {
	if len(got.Replications) != len(ref.Replications) {
		return len(ref.Replications), fmt.Errorf("pass has %d replications, first pass %d", len(got.Replications), len(ref.Replications))
	}
	bad := 0
	var first error
	for i, want := range ref.Replications {
		if got.Replications[i] != want {
			bad++
			if first == nil {
				first = fmt.Errorf("replication %d: %+v, first pass %+v", i, got.Replications[i], want)
			}
		}
	}
	return bad, first
}
