package mc

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// JSON writes the full study result — summaries and every replication
// — as indented JSON.
func (r *Result) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSV writes one row per replication, point-major in replication
// order, with the point's name and workload seed alongside the raw
// metrics — the shape downstream tooling wants for its own
// aggregation.
func (r *Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"point", "name", "topology", "arbiter", "buffer", "seed", "workloadSeed",
		"generated", "delivered", "observed", "misses", "unfinished",
		"missRatio", "meanLatency", "p95Latency", "maxLatency",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, rep := range r.Replications {
		p := r.Points[rep.Point]
		row := []string{
			strconv.Itoa(rep.Point), p.Name, p.Topology, p.ArbiterName, strconv.Itoa(p.Buffer),
			strconv.Itoa(rep.Seed), strconv.FormatInt(rep.WorkloadSeed, 10),
			strconv.Itoa(rep.Generated), strconv.Itoa(rep.Delivered), strconv.Itoa(rep.Observed),
			strconv.Itoa(rep.Misses), strconv.Itoa(rep.Unfinished),
			formatFloat(rep.MissRatio), formatFloat(rep.MeanLatency),
			strconv.Itoa(rep.P95Latency), strconv.Itoa(rep.MaxLatency),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table writes the human-readable summary: one block per point with
// mean ± CI95 for each metric.
func (r *Result) Table(w io.Writer) error {
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s (%d streams, %d plevels, %d cycles, %d reps)\n",
			p.Name, p.Streams, p.PLevels, p.Cycles, p.Reps); err != nil {
			return err
		}
		rows := []struct {
			name string
			d    Dist
		}{
			{"miss ratio", p.MissRatio},
			{"mean latency", p.MeanLatency},
			{"p95 latency", p.P95Latency},
			{"max latency", p.MaxLatency},
		}
		for _, row := range rows {
			if _, err := fmt.Fprintf(w, "  %-13s %10.4f ± %-8.4f  p50 %-9.4g p95 %-9.4g range [%.4g, %.4g]\n",
				row.name, row.d.Mean, row.d.CI95, row.d.P50, row.d.P95, row.d.Min, row.d.Max); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
