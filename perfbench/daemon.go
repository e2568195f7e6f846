package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/grid"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/stream"
)

// daemonPools are the workload seeds of the §5 spec pools the writer
// churns. The generator's pools differ up to 50× in analysis cost per
// mutation (period inflation quadruples the periods, and so the Cal_U
// horizons, of streams that saturate), so a pool drawn from the
// benchmark seed would make every figure a draw of the pool. The pools
// are fixed instead — one heavy, one medium, both with an analysis cost
// that varies little with the admission order — and the benchmark seed
// draws the traffic: the admit/withdraw order of every lap. README.md
// has the measurements behind the choice.
var daemonPools = []int64{5, 7}

// daemonScale sizes daemon-churn.
type daemonScale struct {
	pools    []int64 // spec pools (workload seeds)
	laps     int     // laps per pool, each in its own seed-drawn order
	lapOps   int     // BuildSchedule ops per lap, report ops included
	setupOps int     // lap steps applied untimed before the restarts
	restarts int     // restarts timed for setup_s
	readRate float64 // open-loop GET /v1/report per second
}

func daemonScaleFor(tiny bool) daemonScale {
	if tiny {
		return daemonScale{pools: daemonPools[:1], laps: 1, lapOps: 60, setupOps: 20, restarts: 2, readRate: 100}
	}
	return daemonScale{pools: daemonPools, laps: 2, lapOps: 600, setupOps: 150, restarts: 5, readRate: 150}
}

// connections is the client connection count: one closed-loop writer
// plus readers filling the rest of nproc (at least one).
func connections() int { return 1 + max(1, runtime.NumCPU()-1) }

// mutation is one step of the writer's lap.
type mutation struct {
	admit bool
	spec  admit.Spec
	body  []byte // POST /v1/streams body, marshalled before timing
	ref   int    // withdrawals: lap index of the admission they undo
}

// buildLaps concatenates the laps of every pool; lap k of the run draws
// its order from the benchmark seed.
func buildLaps(sc daemonScale, seed int64) ([]mutation, error) {
	var all []mutation
	for _, pool := range sc.pools {
		for j := 0; j < sc.laps; j++ {
			lap, err := buildLap(pool, grid.PointSeed(seed, len(all)), sc.lapOps)
			if err != nil {
				return nil, err
			}
			base := len(all)
			for _, m := range lap {
				if !m.admit {
					m.ref += base
				}
				all = append(all, m)
			}
		}
	}
	return all, nil
}

// buildLap turns a replay-validated BuildSchedule sequence into one lap
// of the writer: report ops dropped, then every stream still live at
// the end withdrawn (oldest first). A lap leaves the daemon empty, so
// laps chain and repeat: every lap offers the same admissions to the
// same state, and the schedule's zero-rejection guarantee holds each
// time.
func buildLap(poolSeed, orderSeed int64, ops int) ([]mutation, error) {
	sc := loadgen.DefaultScheduleConfig(ops, 1000, orderSeed)
	sc.Workload.Seed = poolSeed
	sched, err := loadgen.BuildSchedule(sc)
	if err != nil {
		return nil, err
	}
	var lap []mutation
	bySeq := map[int]int{} // schedule seq -> lap index
	var live []int
	for _, op := range sched.Ops {
		switch op.Kind {
		case loadgen.OpAdmit:
			sp := op.Specs[0]
			body, err := json.Marshal(server.StreamRequest{
				Src: int(sp.Src), Dst: int(sp.Dst), Priority: sp.Priority,
				Period: sp.Period, Length: sp.Length, Deadline: sp.Deadline,
			})
			if err != nil {
				return nil, err
			}
			bySeq[op.Seq] = len(lap)
			live = append(live, len(lap))
			lap = append(lap, mutation{admit: true, spec: sp, body: body})
		case loadgen.OpWithdraw:
			ref, ok := bySeq[op.Ref]
			if !ok || op.RefIdx != 0 {
				return nil, fmt.Errorf("schedule op %d withdraws unknown op %d/%d", op.Seq, op.Ref, op.RefIdx)
			}
			for i, l := range live {
				if l == ref {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			lap = append(lap, mutation{ref: ref})
		case loadgen.OpReport:
		default:
			return nil, fmt.Errorf("schedule op %d: unexpected kind %s", op.Seq, op.Kind)
		}
	}
	for _, ref := range live {
		lap = append(lap, mutation{ref: ref})
	}
	return lap, nil
}

// liveStream is one entry of the writer's client-side mirror.
type liveStream struct {
	Handle admit.Handle
	Spec   admit.Spec
}

// writer is the closed-loop mutation client: it sends the next lap step
// only once the previous verdict is back.
type writer struct {
	client  *http.Client
	base    string
	lap     []mutation
	pos     int
	handles []admit.Handle // by lap index, for the current lap
	mirror  []liveStream   // admission order, as the daemon lists them
}

// writerState is a copy of the writer at one point of the lap.
type writerState struct {
	pos     int
	handles []admit.Handle
	mirror  []liveStream
}

func (w *writer) save() writerState {
	return writerState{pos: w.pos, handles: append([]admit.Handle(nil), w.handles...),
		mirror: append([]liveStream(nil), w.mirror...)}
}

func (w *writer) load(s writerState) {
	w.pos = s.pos
	w.handles = append(w.handles[:0], s.handles...)
	w.mirror = append(w.mirror[:0], s.mirror...)
}

// step executes the current lap step. It returns the lap index it ran.
func (w *writer) step() (int, error) {
	i := w.pos
	m := w.lap[i]
	w.pos++
	if w.pos == len(w.lap) {
		w.pos = 0
	}
	if m.admit {
		w.handles[i] = 0
		status, body, err := do(w.client, http.MethodPost, w.base+"/v1/streams", m.body)
		if err != nil {
			return i, err
		}
		if status != http.StatusOK {
			return i, fmt.Errorf("admit: HTTP %d: %s", status, bytes.TrimSpace(body))
		}
		var ar server.AdmitResponse
		if err := json.Unmarshal(body, &ar); err != nil || len(ar.Handles) != 1 {
			return i, fmt.Errorf("admit: bad response %q", body)
		}
		w.handles[i] = ar.Handles[0]
		w.mirror = append(w.mirror, liveStream{Handle: ar.Handles[0], Spec: m.spec})
		return i, nil
	}
	h := w.handles[m.ref]
	if h == 0 {
		return i, fmt.Errorf("withdraw: lap op %d has no handle (its admission failed)", m.ref)
	}
	status, body, err := do(w.client, http.MethodDelete, fmt.Sprintf("%s/v1/streams/%d", w.base, h), nil)
	if err != nil {
		return i, err
	}
	if status != http.StatusOK {
		return i, fmt.Errorf("withdraw %d: HTTP %d: %s", h, status, bytes.TrimSpace(body))
	}
	for k, ls := range w.mirror {
		if ls.Handle == h {
			w.mirror = append(w.mirror[:k], w.mirror[k+1:]...)
			break
		}
	}
	return i, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// daemon is the in-process rtwormd plus whether it is serving, so that
// cleanup after a failed restart never waits on a daemon that is down.
type daemon struct {
	*loadgen.InProc
	up bool
}

// startDaemon boots the in-process rtwormd composition with rtwormd's
// production defaults (cmd/rtwormd flags) and a snapshot on local disk.
func startDaemon(snapshot string) (*daemon, error) {
	d, err := loadgen.StartInProc(loadgen.InProcConfig{
		Topology:           stream.TopologySpec{Kind: "mesh2d", W: 10, H: 10},
		SnapshotPath:       snapshot,
		MaxQueuedMutations: 256,
		QueueWait:          time.Second,
		RetryAfter:         time.Second,
		WriteTimeout:       30 * time.Second,
		IdleTimeout:        2 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	return &daemon{InProc: d, up: true}, nil
}

func (d *daemon) kill() error {
	if !d.up {
		return nil
	}
	d.up = false
	return d.Kill()
}

// restart kills the daemon and boots it again from its snapshot,
// returning the time from the restart to the first healthy /healthz.
func (d *daemon) restart(clients []*http.Client) (time.Duration, error) {
	if err := d.kill(); err != nil {
		return 0, err
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	t0 := time.Now()
	if err := d.Restart(); err != nil {
		return 0, err
	}
	d.up = true
	for {
		status, _, err := do(clients[0], http.MethodGet, d.URL()+"/healthz", nil)
		if err == nil && status == http.StatusOK {
			return time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("daemon not healthy 30s after restart (status %d, %v)", status, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// phase is one timed window of writer plus reader traffic.
type phase struct {
	mutLat     []float64 // ms per mutation round trip
	mutOps     []int     // lap index of each mutation, in order
	mutFailed  int
	readLat    []float64 // ms from when each read was due
	readLag    []float64 // ms the generator sent each read late
	readFailed int
	elapsed    time.Duration // writer wall time
	allocBytes uint64
	firstErr   error
}

// runPhase drives the closed-loop writer and the open-loop readers for
// dur. With a recording tracer every request becomes a root span whose
// op id is its ordinal in the phase.
func runPhase(w *writer, readers []*http.Client, dur time.Duration, rate float64, tr *tracer) *phase {
	ph := &phase{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	end := start.Add(dur)
	type readOut struct {
		lat, lag []float64
		failed   int
		err      error
	}
	done := make(chan readOut, len(readers))
	for r, c := range readers {
		go func(r int, c *http.Client) {
			var o readOut
			// Reader r owns due slots r, r+R, r+2R, ... of one schedule
			// at the fixed total rate.
			for k := r; ; k += len(readers) {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if !due.Before(end) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o.lag = append(o.lag, ms(time.Since(due)))
				s := tr.start("http.report", nil, 1_000_000+k)
				status, _, err := do(c, http.MethodGet, w.base+"/v1/report", nil)
				s.end()
				o.lat = append(o.lat, ms(time.Since(due)))
				if err != nil || status != http.StatusOK {
					o.failed++
					if o.err == nil {
						o.err = fmt.Errorf("report: status %d, %v", status, err)
					}
				}
			}
			done <- o
		}(r, c)
	}
	for k := 0; time.Now().Before(end); k++ {
		name := "http.withdraw"
		if w.lap[w.pos].admit {
			name = "http.admit"
		}
		s := tr.start(name, nil, k)
		i, err := w.step()
		ph.mutLat = append(ph.mutLat, ms(s.end()))
		ph.mutOps = append(ph.mutOps, i)
		if err != nil {
			ph.mutFailed++
			if ph.firstErr == nil {
				ph.firstErr = err
			}
		}
	}
	ph.elapsed = time.Since(start)
	for range readers {
		o := <-done
		ph.readLat = append(ph.readLat, o.lat...)
		ph.readLag = append(ph.readLag, o.lag...)
		ph.readFailed += o.failed
		if ph.firstErr == nil {
			ph.firstErr = o.err
		}
	}
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	return ph
}

func (ph *phase) opsPerSec() float64 { return float64(len(ph.mutLat)) / ph.elapsed.Seconds() }

func (ph *phase) count(o *outcome) {
	o.attempted += len(ph.mutLat) + len(ph.readLat)
	if n := ph.mutFailed + ph.readFailed; n > 0 {
		o.fail(n, "%d mutations and %d reads failed; first: %v", ph.mutFailed, ph.readFailed, ph.firstErr)
	}
}

func (ph *phase) print(w io.Writer, label string) {
	n := fmt.Sprintf("%s, n=%d", label, len(ph.mutLat))
	report(w, "mutation_rate", ph.opsPerSec(), "mutations/s", n)
	report(w, "mutation_p50_ms", quantile(ph.mutLat, 0.5), "ms", n)
	report(w, "mutation_p99_ms", quantile(ph.mutLat, 0.99), "ms", n)
	n = fmt.Sprintf("%s, n=%d", label, len(ph.readLat))
	report(w, "read_p50_ms", quantile(ph.readLat, 0.5), "ms", n)
	report(w, "read_p99_ms", quantile(ph.readLat, 0.99), "ms", n)
	report(w, "read_lag_p99_ms", quantile(ph.readLag, 0.99), "ms", n)
}

// runDaemonChurn is the daemon-churn workload: a closed-loop writer
// replays replay-validated admit/withdraw laps while open-loop readers
// poll the report, against a snapshot-persisting daemon on loopback.
func runDaemonChurn(cfg config) (*outcome, error) {
	sc := daemonScaleFor(cfg.tiny)
	lap, err := buildLaps(sc, cfg.seed) // input generation: never timed
	if err != nil {
		return nil, err
	}
	snap := filepath.Join(cfg.workDir, "state.json")
	d, err := startDaemon(snap)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	w := &writer{client: newClient(), base: d.URL(), lap: lap, handles: make([]admit.Handle, len(lap))}
	readers := make([]*http.Client, connections()-1)
	for i := range readers {
		readers[i] = newClient()
	}
	clients := append([]*http.Client{w.client}, readers...)

	// Set-up: a first slice of the lap, then restarts from the snapshot.
	for i := 0; i < sc.setupOps; i++ {
		if _, err := w.step(); err != nil {
			return nil, fmt.Errorf("set-up mutation %d: %w", i, err)
		}
	}
	var setups []float64
	for i := 0; i < sc.restarts; i++ {
		dt, err := d.restart(clients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
	}
	o := newOutcome()
	if !cfg.trace {
		ph := runPhase(w, readers, cfg.dur, sc.readRate, newTracer(false))
		ph.count(o)
		ph.print(cfg.out, "untraced")
		o.e2e["ops_per_s"] = ph.opsPerSec()
		o.e2e["latency_p50_ms"] = quantile(ph.mutLat, 0.5)
		o.e2e["latency_p99_ms"] = quantile(ph.mutLat, 0.99)
		o.e2e["setup_s"] = median(setups)
		o.e2e["alloc_kb_per_op"] = float64(ph.allocBytes) / 1024 / float64(len(ph.mutLat)+len(ph.readLat))
		report(cfg.out, "setup_s", median(setups), "s", fmt.Sprintf("median of %d restarts", len(setups)))
		report(cfg.out, "alloc_kb_per_op", o.e2e["alloc_kb_per_op"], "KiB", "per mutation or read, client and daemon")
	} else if err := traceDaemon(cfg, sc, d, w, readers, clients, snap, o); err != nil {
		return nil, err
	}
	checkDaemon(d.URL(), w, o)
	return o, nil
}

// traceDaemon is the traced daemon-churn run: the same op window twice
// from the same post-set-up state, untraced then traced, followed by an
// in-process replay of the traced window through the layers HTTP hides.
func traceDaemon(cfg config, sc daemonScale, d *daemon, w *writer, readers, clients []*http.Client, snap string, o *outcome) error {
	base := w.save()
	baseSnap, err := os.ReadFile(snap)
	if err != nil {
		return err
	}
	phA := runPhase(w, readers, cfg.dur/2, sc.readRate, newTracer(false))
	phA.count(o)
	phA.print(cfg.out, "untraced half")

	// Back to the post-set-up state for the traced half. The daemon is
	// idle, so its snapshot can be put back before the restart loads it.
	if err := os.WriteFile(snap, baseSnap, 0o644); err != nil {
		return err
	}
	if _, err := d.restart(clients); err != nil {
		return err
	}
	w.load(base)
	tr := newTracer(true)
	phB := runPhase(w, readers, cfg.dur/2, sc.readRate, tr)
	phB.count(o)
	phB.print(cfg.out, "traced half")

	restoreSnap := filepath.Join(cfg.workDir, "restore.json")
	if err := os.WriteFile(restoreSnap, baseSnap, 0o644); err != nil {
		return err
	}
	var restores []float64
	for i := 0; i < sc.restarts; i++ {
		s := tr.start("server.restore", nil, -1)
		_, ok, err := server.LoadSnapshot(restoreSnap, admit.Config{})
		restores = append(restores, ms(s.end()))
		if err != nil || !ok {
			return fmt.Errorf("restore: %v (found %v)", err, ok)
		}
	}
	rp, err := replayDaemon(restoreSnap, filepath.Join(cfg.workDir, "replay.json"), w.lap, base, phB.mutOps, tr)
	if err != nil {
		return err
	}
	o.attempted += len(phB.mutOps)
	for _, p := range rp.problems {
		o.fail(1, "in-process replay: %s", p)
	}
	o.spans = tr.finish()
	l := o.layer
	l["server.restore_ms"] = median(restores)
	l["server.read_p50_ms"] = quantile(phB.readLat, 0.5)
	l["server.read_p99_ms"] = quantile(phB.readLat, 0.99)
	l["harness.read_lag_p99_ms"] = quantile(phB.readLag, 0.99)
	l["harness.trace_overhead"] = phA.opsPerSec()/phB.opsPerSec() - 1
	rp.layerMetrics(o.spans, phB, l)
	reportLayers(cfg.out, l)
	rp.printBreakdown(cfg.out, o.spans, phB)
	return nil
}

// checkDaemon compares the daemon's final state with the writer's
// mirror and its report with a fresh analysis of that stream set.
func checkDaemon(base string, w *writer, o *outcome) {
	c := newClient()
	defer c.CloseIdleConnections()
	var streams struct {
		Streams []server.StreamInfo `json:"streams"`
	}
	var rep server.ReportResponse
	if err := getJSON(c, base+"/v1/streams", &streams); err != nil {
		o.fail(1, "GET /v1/streams: %v", err)
		return
	}
	if err := getJSON(c, base+"/v1/report", &rep); err != nil {
		o.fail(1, "GET /v1/report: %v", err)
		return
	}
	o.attempted += 2
	if err := checkMirror(w.mirror, streams.Streams); err != nil {
		o.fail(1, "%v", err)
	}
	if err := checkReport(streams.Streams, rep); err != nil {
		o.fail(1, "%v", err)
	}
}

func getJSON(c *http.Client, url string, v any) error {
	status, body, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d", status)
	}
	return json.Unmarshal(body, v)
}
