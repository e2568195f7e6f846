package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/admit"
	"repro/internal/topology"
)

// newTestServer boots a server over a fresh 10×10-mesh controller and
// returns an httptest harness around its handler. The HTTP lifecycle
// (real listener, graceful shutdown) is exercised by internal/e2e;
// these tests pin the route behaviour.
func newTestServer(t *testing.T, snapshotPath string) (*Server, *httptest.Server) {
	t.Helper()
	ctl, err := admit.New(topology.NewMesh2D(10, 10), admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Controller: ctl, SnapshotPath: snapshotPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.httpSrv.Handler)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// paperStream returns the worked example's stream i as a request body.
func paperStream(i int) StreamRequest {
	reqs := []StreamRequest{
		{Src: 37, Dst: 77, Priority: 5, Period: 15, Length: 4},
		{Src: 11, Dst: 45, Priority: 4, Period: 10, Length: 2},
		{Src: 12, Dst: 57, Priority: 3, Period: 40, Length: 4},
		{Src: 14, Dst: 58, Priority: 2, Period: 45, Length: 9},
		{Src: 16, Dst: 39, Priority: 1, Period: 50, Length: 6},
	}
	return reqs[i]
}

func TestAdmitReportWithdrawOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, "")

	var handles []admit.Handle
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/streams", paperStream(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
		ar := decode[AdmitResponse](t, resp)
		if len(ar.Handles) != 1 || !ar.Feasible {
			t.Fatalf("admit %d: %+v", i, ar)
		}
		handles = append(handles, ar.Handles[0])
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[ReportResponse](t, resp)
	if !rep.Feasible || rep.Streams != 5 {
		t.Fatalf("report: %+v", rep)
	}
	wantU := []int{7, 8, 26, 30, 33}
	for i, v := range rep.Verdicts {
		if v.U != wantU[i] || v.Handle != handles[i] {
			t.Fatalf("verdict %d: %+v (want U=%d handle=%d)", i, v, wantU[i], handles[i])
		}
	}

	resp, err = http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]StreamInfo](t, resp)
	if len(list["streams"]) != 5 {
		t.Fatalf("list: %+v", list)
	}
	if got := list["streams"][2]; got.Src != 12 || got.Period != 40 || got.Deadline != 40 {
		t.Fatalf("stream 2: %+v", got)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/streams/%d", ts.URL, handles[2]), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("withdraw: status %d", resp.StatusCode)
	}
	wd := decode[map[string]int](t, resp)
	if wd["recomputed"] < 1 {
		t.Fatalf("withdraw recomputed %d", wd["recomputed"])
	}

	// Withdrawing again is a 404; a malformed handle is a 400.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double withdraw: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Trailing garbage after a valid handle is malformed too, and must
	// not withdraw handle 1.
	for _, bad := range []string{"banana", "1x", "1%202"} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+bad, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed handle %q: status %d", bad, resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	list = decode[map[string][]StreamInfo](t, resp)
	if len(list["streams"]) != 4 || list["streams"][0].Handle != 1 {
		t.Fatalf("malformed withdrawals changed the set: %+v", list)
	}
}

func TestRejectionIs409WithStructuredBody(t *testing.T) {
	_, ts := newTestServer(t, "")
	// A modest stream along row 0, feasible on its own.
	postJSON(t, ts.URL+"/v1/streams", StreamRequest{
		Src: 0, Dst: 3, Priority: 1, Period: 60, Length: 6,
	}).Body.Close()
	// A top-priority hog over the same row: its blocking breaks the
	// first stream's deadline.
	resp := postJSON(t, ts.URL+"/v1/streams", StreamRequest{
		Src: 0, Dst: 5, Priority: 9, Period: 8, Length: 8, Deadline: 2000,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	er := decode[ErrorResponse](t, resp)
	// Infeasible means the bound misses the deadline — either it
	// overshoots, or no bound exists at all (U < 0).
	if er.Rejection == nil || (er.Rejection.U >= 0 && er.Rejection.U <= er.Rejection.Deadline) {
		t.Fatalf("rejection: %+v", er)
	}
	// The rollback means the set is unchanged.
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[ReportResponse](t, resp)
	if rep.Streams != 1 || !rep.Feasible {
		t.Fatalf("post-rejection report: %+v", rep)
	}
}

// TestOverCapDeadlineIs400: a deadline beyond the analysis horizon cap
// is a malformed request. It used to panic a Cal_U worker and kill the
// daemon; now it is a 400, nothing is committed or persisted, and the
// daemon keeps serving.
func TestOverCapDeadlineIs400(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	_, ts := newTestServer(t, path)
	resp := postJSON(t, ts.URL+"/v1/streams", paperStream(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first admit: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	over := paperStream(1)
	over.Deadline = 1 << 62
	resp = postJSON(t, ts.URL+"/v1/streams", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("deadline 2^62: status %d, want 400", resp.StatusCode)
	}
	if er := decode[ErrorResponse](t, resp); !strings.Contains(er.Error, "deadline") {
		t.Fatalf("deadline 2^62: error %q does not name the deadline", er.Error)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused admission touched the snapshot: %v", err)
	}
	resp, err = http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	if rep := decode[ReportResponse](t, resp); rep.Streams != 1 {
		t.Fatalf("after the refused admission: %d streams, want 1", rep.Streams)
	}
	resp = postJSON(t, ts.URL+"/v1/streams", paperStream(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit after the refusal: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestJobBatchIsAtomic(t *testing.T) {
	s, ts := newTestServer(t, "")
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Name:    "paper-example",
		Streams: []StreamRequest{paperStream(0), paperStream(1), paperStream(2)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job admit: status %d", resp.StatusCode)
	}
	ar := decode[AdmitResponse](t, resp)
	if len(ar.Handles) != 3 {
		t.Fatalf("job handles: %+v", ar)
	}

	// A batch whose members conflict (a row-0 stream and a
	// higher-priority hog over the same row) admits nothing.
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Streams: []StreamRequest{
			{Src: 0, Dst: 3, Priority: 1, Period: 60, Length: 6},
			{Src: 0, Dst: 5, Priority: 9, Period: 8, Length: 8, Deadline: 2000},
		},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("infeasible job: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[ReportResponse](t, resp)
	if rep.Streams != 3 {
		t.Fatalf("after failed job: %d streams, want 3", rep.Streams)
	}

	// Empty and malformed jobs are 400s.
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty job: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"nope": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A body is exactly one JSON value: a second value or trailing
	// garbage is a 400 that admits nothing, on both admission routes.
	// Trailing whitespace is fine.
	one, err := json.Marshal(paperStream(3))
	if err != nil {
		t.Fatal(err)
	}
	job, err := json.Marshal(JobRequest{Streams: []StreamRequest{paperStream(3)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ route, body string }{
		{"/v1/streams", string(one) + string(one)},
		{"/v1/streams", string(one) + " garbage"},
		{"/v1/jobs", string(job) + " {}"},
	} {
		resp, err := http.Post(ts.URL+c.route, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || s.ctl.Len() != 3 {
			t.Fatalf("POST %s %q: status %d, %d streams; want 400 and 3", c.route, c.body, resp.StatusCode, s.ctl.Len())
		}
	}
	resp, err = http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(string(one)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || s.ctl.Len() != 4 {
		t.Fatalf("trailing newline: status %d, %d streams; want 200 and 4", resp.StatusCode, s.ctl.Len())
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, "")
	postJSON(t, ts.URL+"/v1/streams", paperStream(0)).Body.Close()
	postJSON(t, ts.URL+"/v1/streams", paperStream(1)).Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"rtwormd_streams 2",
		"rtwormd_admitted_total 2",
		"rtwormd_rejected_total 0",
		"rtwormd_withdrawn_total 0",
		"rtwormd_snapshot_errors_total 0",
		"rtwormd_admit_latency_us_count 2",
		"rtwormd_withdraw_latency_us_count 0",
		"rtwormd_persist_latency_us_count 0",
		"rtwormd_snapshot_compactions_total 0",
		"rtwormd_compactions_skipped_total 0",
		"rtwormd_snapshot_tail_records 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSnapshotPersistAndRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, path)

	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/streams", paperStream(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The snapshot on disk is valid JSON and round-trips through
	// LoadSnapshot into an identical controller.
	ctl2, ok, err := LoadSnapshot(path, admit.Config{})
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if ctl2.Len() != 3 {
		t.Fatalf("restored %d streams", ctl2.Len())
	}
	r1, r2 := s.ctl.Report(), ctl2.Report()
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("restored report differs:\n%s\n%s", b1, b2)
	}
	// No temp files left behind by the atomic rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.json" {
		t.Fatalf("leftover files: %v", entries)
	}
	// A missing file is not an error: boot fresh.
	_, ok, err = LoadSnapshot(filepath.Join(dir, "absent.json"), admit.Config{})
	if err != nil || ok {
		t.Fatalf("absent snapshot: ok=%v err=%v", ok, err)
	}
}

// TestSnapshotsLandInCommitOrder: concurrent admissions at the
// production queue depth leave on disk exactly the state they left in
// memory, so every acknowledged mutation survives a restart.
func TestSnapshotsLandInCommitOrder(t *testing.T) {
	const rounds, writers, admits = 20, 8, 10
	for round := 0; round < rounds; round++ {
		path := filepath.Join(t.TempDir(), "state.json")
		s, ts := newOverloadServer(t, Config{SnapshotPath: path, MaxQueuedMutations: 256})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < admits; k++ {
					// One hop down column k from row g: no two streams
					// share a channel, so every admission succeeds.
					body, _ := json.Marshal(StreamRequest{Src: g*10 + k, Dst: g*10 + k + 10, Priority: 1, Period: 1000, Length: 2})
					resp, err := http.Post(ts.URL+"/v1/streams", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("writer %d admit %d: status %d", g, k, resp.StatusCode)
					}
				}
			}(g)
		}
		wg.Wait()
		restored, ok, err := LoadSnapshot(path, admit.Config{})
		if err != nil || !ok {
			t.Fatalf("round %d: LoadSnapshot: ok=%v err=%v", round, ok, err)
		}
		if got, want := restored.Streams(), s.ctl.Streams(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: snapshot holds %d streams, memory %d:\n%+v\n%+v", round, len(got), len(want), got, want)
		}
	}
}

func TestSnapshotWriteFailureReportsCommitted(t *testing.T) {
	// Point the snapshot at a directory that does not exist: the
	// mutation commits in memory, the persist fails, and the client is
	// told both facts.
	dir := t.TempDir()
	s, ts := newTestServer(t, filepath.Join(dir, "missing-subdir", "state.json"))
	resp := postJSON(t, ts.URL+"/v1/streams", paperStream(0))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	er := decode[ErrorResponse](t, resp)
	if !er.Committed || !strings.Contains(er.Error, "snapshot") {
		t.Fatalf("error body: %+v", er)
	}
	if s.ctl.Len() != 1 {
		t.Fatalf("mutation not committed: %d streams", s.ctl.Len())
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "rtwormd_snapshot_errors_total 1") {
		t.Fatalf("snapshot error not counted:\n%s", buf.String())
	}
}
