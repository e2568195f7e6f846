// Package server exposes an admit.Controller as a JSON HTTP service —
// the online face of the paper's host processor. It is stdlib-only:
// a net/http ServeMux with method-qualified routes, JSON bodies, a
// Prometheus-style text /metrics endpoint backed by internal/hist, and
// optional snapshot persistence, one fdatasync'd record per commit, so
// a restarted daemon resumes exactly where it stopped.
//
// Routes (see docs/DAEMON.md for the full reference):
//
//	POST   /v1/streams           admit one stream
//	DELETE /v1/streams/{handle}  withdraw one stream
//	POST   /v1/jobs              admit a batch atomically
//	GET    /v1/streams           list admitted streams
//	GET    /v1/report            feasibility report over the live set
//	GET    /healthz              liveness probe
//	GET    /metrics              counters + recompute-latency histograms
//
// Failure semantics: infeasible admissions are 409 with the structured
// rejection, malformed requests are 400, unknown handles are 404. A
// mutation commits in memory before its record is written; if the
// write fails the response is 500 with "committed": true and the
// daemon keeps serving from memory (the operator loses restart
// durability, not traffic).
//
// Overload protection: mutations serialize behind the server's commit
// lock, so under sustained overload they would otherwise queue
// without bound and convert into client timeouts. With
// MaxQueuedMutations set, at most that many mutation requests are in
// the building at once (executing plus waiting); the rest wait up to
// QueueWait for a slot and are then shed with 429 Too Many Requests
// and a parseable Retry-After header. A shed request has touched no
// state. Once a mutation holds a slot it always runs to completion —
// the commit-before-respond guarantee is never cut short by a
// deadline. See docs/DAEMON.md for the overload semantics.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/admit"
	"repro/internal/hist"
	"repro/internal/topology"
)

// Config assembles a Server.
type Config struct {
	Controller *admit.Controller
	// SnapshotPath persists the controller state after every mutation;
	// empty disables persistence. A file already there must be the one
	// Controller was restored from (LoadSnapshot): commits append to it.
	SnapshotPath string
	// MutationDelay artificially lengthens every mutation while it
	// holds no lock. It exists for the end-to-end shutdown-drain test
	// (internal/e2e), which needs a request reliably in flight; leave
	// zero in production.
	MutationDelay time.Duration
	// MaxQueuedMutations bounds the mutation requests admitted into the
	// serialized controller queue, the executing one included; 0
	// disables backpressure (unbounded queueing, the pre-overload
	// behaviour).
	MaxQueuedMutations int
	// QueueWait is the per-request deadline for obtaining a queue slot:
	// a mutation that cannot start within it is shed with 429. Zero
	// sheds immediately when the queue is full.
	QueueWait time.Duration
	// RetryAfter is the hint sent in the Retry-After header of a 429,
	// rounded up to whole seconds (minimum 1, per RFC 9110
	// delay-seconds). Zero defaults to one second.
	RetryAfter time.Duration
	// WriteTimeout and IdleTimeout are applied to the http.Server (zero
	// leaves the corresponding limit off). ReadHeaderTimeout is always
	// set.
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
}

// Server is the HTTP face of one admission controller.
type Server struct {
	ctl      *admit.Controller
	delay    time.Duration
	httpSrv  *http.Server
	inflight atomic.Int64

	// mutSem is the bounded mutation queue: holding a token is the
	// right to run one mutation. nil when backpressure is disabled.
	mutSem     chan struct{}
	queueWait  time.Duration
	retryAfter time.Duration
	overload   atomic.Int64 // mutations shed with 429

	// commitMu serializes mutations from the controller call through
	// the snapshot write, so records land in commit order. It is taken
	// before the controller's lock, never after. It guards log and
	// closed.
	commitMu     sync.Mutex
	log          *snapshotLog // nil without a snapshot path
	closed       bool         // Close or Shutdown has fenced off commits
	snapshotErrs atomic.Int64
	compactions  atomic.Int64
	compactSkips atomic.Int64 // compactions skipped over an infeasible report
	tailRecords  atomic.Int64

	mu          sync.Mutex // guards the histograms
	admitLat    hist.H     // admit mutation latency, µs (recompute included)
	withdrawLat hist.H     // withdraw mutation latency, µs
	persistLat  hist.H     // record append and fdatasync (and compaction), µs
}

// New wires the routes and returns a server ready to Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("server: nil controller")
	}
	if cfg.MaxQueuedMutations < 0 {
		return nil, fmt.Errorf("server: negative mutation queue bound %d", cfg.MaxQueuedMutations)
	}
	s := &Server{
		ctl:        cfg.Controller,
		delay:      cfg.MutationDelay,
		queueWait:  cfg.QueueWait,
		retryAfter: cfg.RetryAfter,
	}
	if cfg.SnapshotPath != "" {
		s.log = &snapshotLog{path: cfg.SnapshotPath, datasync: fdatasync, syncDir: syncDir}
		if err := s.boot(); err != nil {
			return nil, err
		}
	}
	if s.retryAfter <= 0 {
		s.retryAfter = time.Second
	}
	if cfg.MaxQueuedMutations > 0 {
		s.mutSem = make(chan struct{}, cfg.MaxQueuedMutations)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/streams", s.handleAdmitStream)
	mux.HandleFunc("DELETE /v1/streams/{handle}", s.handleWithdraw)
	mux.HandleFunc("GET /v1/streams", s.handleListStreams)
	mux.HandleFunc("POST /v1/jobs", s.handleAdmitJob)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.httpSrv = &http.Server{
		Handler:           s.track(mux),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	return s, nil
}

// track counts in-flight requests so tests (and /metrics) can observe
// the drain behaviour of graceful shutdown.
func (s *Server) track(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.httpSrv.Serve(l) }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires. Then it fences off commits, as
// Close does.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.fence()
	return err
}

// Close stops the server abruptly: the listener and every active
// connection are torn down without draining. It exists for chaos
// testing (internal/loadgen kills a daemon mid-run to exercise
// snapshot restore); production shutdown should use Shutdown. A
// mutation still running commits before Close returns or not at all.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.fence()
	return err
}

// fence waits for the commit in progress and closes the snapshot file.
// A mutation that reaches the commit lock later is refused, so nothing
// is committed or written once Close or Shutdown returns.
func (s *Server) fence() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.closed = true
	if s.log != nil {
		s.log.close()
	}
}

// acquireMutation takes a slot in the bounded mutation queue. It
// returns a release func and true, or (nil, false) when the request
// should be shed: the queue stayed full past the QueueWait deadline,
// or the client went away while waiting. With backpressure disabled it
// always succeeds immediately.
func (s *Server) acquireMutation(ctx context.Context) (func(), bool) {
	if s.mutSem == nil {
		return func() {}, true
	}
	release := func() { <-s.mutSem }
	select {
	case s.mutSem <- struct{}{}:
		return release, true
	default:
	}
	if s.queueWait <= 0 {
		return nil, false
	}
	t := time.NewTimer(s.queueWait)
	defer t.Stop()
	select {
	case s.mutSem <- struct{}{}:
		return release, true
	case <-t.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// shed answers a mutation the queue could not absorb: 429 with a
// Retry-After hint in whole seconds, body in the usual error shape.
// Nothing was committed.
func (s *Server) shed(w http.ResponseWriter) {
	s.overload.Add(1)
	secs := int((s.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error: "overloaded: mutation queue full; retry after the indicated delay",
	})
}

// StreamRequest is the JSON body of POST /v1/streams and each element
// of a job batch.
type StreamRequest struct {
	Src      int `json:"src"`
	Dst      int `json:"dst"`
	Priority int `json:"priority"`
	Period   int `json:"period"`
	Length   int `json:"length"`
	Deadline int `json:"deadline,omitempty"` // defaults to period
}

func (r StreamRequest) spec() admit.Spec {
	return admit.Spec{
		Src: topology.NodeID(r.Src), Dst: topology.NodeID(r.Dst),
		Priority: r.Priority, Period: r.Period,
		Length: r.Length, Deadline: r.Deadline,
	}
}

// JobRequest is the JSON body of POST /v1/jobs: a jobadm-style batch
// admitted atomically.
type JobRequest struct {
	Name    string          `json:"name,omitempty"`
	Streams []StreamRequest `json:"streams"`
}

// AdmitResponse is the success body of the two admission routes.
type AdmitResponse struct {
	Handles    []admit.Handle `json:"handles"`
	Recomputed int            `json:"recomputed"`
	Feasible   bool           `json:"feasible"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error     string           `json:"error"`
	Rejection *admit.Rejection `json:"rejection,omitempty"`
	Committed bool             `json:"committed,omitempty"`
}

// VerdictResponse is one row of GET /v1/report.
type VerdictResponse struct {
	ID       int          `json:"id"`
	Handle   admit.Handle `json:"handle"`
	U        int          `json:"u"`
	Deadline int          `json:"deadline"`
	Feasible bool         `json:"feasible"`
}

// ReportResponse is the body of GET /v1/report.
type ReportResponse struct {
	Feasible bool              `json:"feasible"`
	Streams  int               `json:"streams"`
	Verdicts []VerdictResponse `json:"verdicts"`
}

// StreamInfo is one row of GET /v1/streams.
type StreamInfo struct {
	Handle   admit.Handle `json:"handle"`
	ID       int          `json:"id"`
	Src      int          `json:"src"`
	Dst      int          `json:"dst"`
	Priority int          `json:"priority"`
	Period   int          `json:"period"`
	Length   int          `json:"length"`
	Deadline int          `json:"deadline"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection owns delivery; nothing to do on failure
}

// decodeBody decodes the request body as exactly one JSON value into v.
// Trailing whitespace is allowed; a second value or any other trailing
// byte is a 400, so a request is never half applied.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("decode: %v", err)})
		return false
	}
	return true
}

func (s *Server) handleAdmitStream(w http.ResponseWriter, r *http.Request) {
	var req StreamRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mutate(w, r, &s.admitLat, s.admit([]admit.Spec{req.spec()}))
}

func (s *Server) handleAdmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Streams) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "job has no streams"})
		return
	}
	specs := make([]admit.Spec, len(req.Streams))
	for i, sr := range req.Streams {
		specs[i] = sr.spec()
	}
	s.mutate(w, r, &s.admitLat, s.admit(specs))
}

// admit is the controller call behind both admission routes.
func (s *Server) admit(specs []admit.Spec) mutation {
	return func() (int, any, *record, error) {
		res, err := s.ctl.AdmitBatch(specs)
		if err != nil {
			return http.StatusBadRequest, nil, nil, err
		}
		if !res.Admitted {
			return http.StatusConflict, ErrorResponse{
				Error:     "infeasible: " + res.Rejection.String(),
				Rejection: res.Rejection,
			}, nil, nil
		}
		rec := &record{Admit: make([]admit.SnapshotStream, len(specs))}
		for k, sp := range specs {
			rec.Admit[k] = admit.StreamOf(res.Handles[k], sp)
		}
		return http.StatusOK, AdmitResponse{
			Handles:    res.Handles,
			Recomputed: res.Recomputed,
			Feasible:   res.Report.Feasible,
		}, rec, nil
	}
}

func (s *Server) handleWithdraw(w http.ResponseWriter, r *http.Request) {
	handle, err := strconv.ParseInt(r.PathValue("handle"), 10, 64)
	if err != nil || handle <= 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed handle"})
		return
	}
	s.mutate(w, r, &s.withdrawLat, s.withdraw(admit.Handle(handle)))
}

// withdraw is the controller call behind the withdrawal route.
func (s *Server) withdraw(h admit.Handle) mutation {
	return func() (int, any, *record, error) {
		recomputed, err := s.ctl.Withdraw(h)
		if err != nil {
			return http.StatusNotFound, nil, nil, err
		}
		return http.StatusOK, map[string]int{"recomputed": recomputed}, &record{Withdraw: h}, nil
	}
}

// A mutation is one controller call and the response it earns: a
// status and body, with the record of a commit on 200, or a status and
// the controller's error.
type mutation func() (code int, body any, rec *record, err error)

// mutate is the pipeline every mutating route runs: a queue slot (or
// 429), MutationDelay, then under the commit lock the controller call,
// its latency observation into lat and, on 200, the durable append of
// its record; the response is written after the lock is released, so
// a slow client never holds it.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, lat *hist.H, call mutation) {
	release, ok := s.acquireMutation(r.Context())
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	code, body := s.commit(lat, call)
	writeJSON(w, code, body)
}

// commit runs call under the commit lock; see mutate.
func (s *Server) commit(lat *hist.H, call mutation) (int, any) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.closed {
		return http.StatusServiceUnavailable, ErrorResponse{Error: "server closed"}
	}
	t0 := time.Now()
	code, body, rec, err := call()
	elapsed := time.Since(t0)
	if err != nil {
		return code, ErrorResponse{Error: err.Error()}
	}
	s.mu.Lock()
	lat.Observe(int(elapsed.Microseconds()))
	s.mu.Unlock()
	if code != http.StatusOK {
		return code, body
	}
	if err := s.persist(rec); err != nil {
		return http.StatusInternalServerError, ErrorResponse{
			Error: fmt.Sprintf("snapshot: %v", err), Committed: true,
		}
	}
	return code, body
}

func (s *Server) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	admitted := s.ctl.Streams()
	out := make([]StreamInfo, len(admitted))
	for i, a := range admitted {
		out[i] = StreamInfo{
			Handle: a.Handle, ID: int(a.ID),
			Src: int(a.Spec.Src), Dst: int(a.Spec.Dst),
			Priority: a.Spec.Priority, Period: a.Spec.Period,
			Length: a.Spec.Length, Deadline: a.Spec.Deadline,
		}
	}
	writeJSON(w, http.StatusOK, map[string][]StreamInfo{"streams": out})
}

func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	st := s.ctl.State()
	out := ReportResponse{Feasible: st.Report.Feasible, Streams: len(st.Report.Verdicts)}
	out.Verdicts = make([]VerdictResponse, len(st.Report.Verdicts))
	for i, v := range st.Report.Verdicts {
		out.Verdicts[i] = VerdictResponse{
			ID: int(v.ID), Handle: st.Streams[i].Handle,
			U: v.U, Deadline: v.Deadline, Feasible: v.Feasible,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the counters and latency histograms in the
// Prometheus text exposition format, deterministically ordered.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.ctl.State()
	s.mu.Lock()
	admitLat, withdrawLat, persistLat := s.admitLat, s.withdrawLat, s.persistLat
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP rtwormd_streams Streams currently admitted.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_streams gauge\n")
	fmt.Fprintf(w, "rtwormd_streams %d\n", len(st.Streams))
	fmt.Fprintf(w, "# TYPE rtwormd_inflight_requests gauge\n")
	fmt.Fprintf(w, "rtwormd_inflight_requests %d\n", s.InFlight())
	fmt.Fprintf(w, "# TYPE rtwormd_admitted_total counter\n")
	fmt.Fprintf(w, "rtwormd_admitted_total %d\n", st.Stats.Admitted)
	fmt.Fprintf(w, "# TYPE rtwormd_rejected_total counter\n")
	fmt.Fprintf(w, "rtwormd_rejected_total %d\n", st.Stats.Rejected)
	fmt.Fprintf(w, "# TYPE rtwormd_withdrawn_total counter\n")
	fmt.Fprintf(w, "rtwormd_withdrawn_total %d\n", st.Stats.Withdrawn)
	fmt.Fprintf(w, "# HELP rtwormd_recomputed_bounds_total Delay bounds recomputed across mutations.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_recomputed_bounds_total counter\n")
	fmt.Fprintf(w, "rtwormd_recomputed_bounds_total %d\n", st.Stats.Recomputed)
	fmt.Fprintf(w, "# HELP rtwormd_cached_bounds_total Delay bounds served from cache across mutations.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_cached_bounds_total counter\n")
	fmt.Fprintf(w, "rtwormd_cached_bounds_total %d\n", st.Stats.Cached)
	fmt.Fprintf(w, "# TYPE rtwormd_snapshot_errors_total counter\n")
	fmt.Fprintf(w, "rtwormd_snapshot_errors_total %d\n", s.snapshotErrs.Load())
	fmt.Fprintf(w, "# HELP rtwormd_overload_shed_total Mutations shed with 429 because the queue was full.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_overload_shed_total counter\n")
	fmt.Fprintf(w, "rtwormd_overload_shed_total %d\n", s.overload.Load())
	fmt.Fprintf(w, "# HELP rtwormd_mutation_queue_depth Mutations holding or waiting for a queue slot.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_mutation_queue_depth gauge\n")
	fmt.Fprintf(w, "rtwormd_mutation_queue_depth %d\n", len(s.mutSem))
	fmt.Fprintf(w, "# HELP rtwormd_snapshot_compactions_total Snapshot files rewritten as one document, dropping the record tail.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_snapshot_compactions_total counter\n")
	fmt.Fprintf(w, "rtwormd_snapshot_compactions_total %d\n", s.compactions.Load())
	fmt.Fprintf(w, "# HELP rtwormd_compactions_skipped_total Compactions skipped because the committed report is infeasible.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_compactions_skipped_total counter\n")
	fmt.Fprintf(w, "rtwormd_compactions_skipped_total %d\n", s.compactSkips.Load())
	fmt.Fprintf(w, "# HELP rtwormd_snapshot_tail_records Durable records after the snapshot document.\n")
	fmt.Fprintf(w, "# TYPE rtwormd_snapshot_tail_records gauge\n")
	fmt.Fprintf(w, "rtwormd_snapshot_tail_records %d\n", s.tailRecords.Load())
	writeHist(w, "rtwormd_admit_latency_us", "Admit mutation latency (recompute included), microseconds.", &admitLat)
	writeHist(w, "rtwormd_withdraw_latency_us", "Withdraw mutation latency, microseconds.", &withdrawLat)
	writeHist(w, "rtwormd_persist_latency_us", "Commit persistence (record append and fdatasync, compaction included), microseconds.", &persistLat)
}

// writeHist renders one hist.H as a Prometheus summary.
func writeHist(w io.Writer, name, help string, h *hist.H) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s summary\n", name)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v < 0 {
			v = 0
		}
		fmt.Fprintf(w, "%s{quantile=\"%g\"} %d\n", name, q, v)
	}
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	mean := h.Mean()
	if h.Count() == 0 {
		mean = 0
	}
	fmt.Fprintf(w, "%s_sum %d\n", name, int64(mean*float64(h.Count())))
}
