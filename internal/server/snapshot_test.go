package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/topology"
	"repro/internal/workload"
)

// committed is the part of a State a restart must reproduce byte for
// byte: the streams with their handles, the next handle and the report.
func committed(t testing.TB, st *admit.State) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Streams    []admit.Admitted
		NextHandle admit.Handle
		Report     any
	}{append([]admit.Admitted{}, st.Streams...), st.NextHandle, st.Report})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// bootFrom restarts a daemon from the file at path, as cmd/rtwormd
// does, and serves it through an httptest harness.
func bootFrom(t *testing.T, path string) (*Server, *httptest.Server) {
	t.Helper()
	ctl, ok, err := LoadSnapshot(path, admit.Config{})
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	s, err := New(Config{Controller: ctl, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.httpSrv.Handler)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func metrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func withdrawHTTP(t *testing.T, base string, h admit.Handle) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/streams/%d", base, h), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, code int) {
	t.Helper()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != code {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, code, body)
	}
}

// TestPool7WithdrawalRestarts: in §5 pool 7, admitted in ID order, a
// single withdrawal (of admitted stream #0, or of #28) commits an
// infeasible report. The daemon must boot from the file it wrote, and
// boot again, to exactly the committed state. Restore refuses an
// infeasible document, so the boot keeps the record tail and counts
// the compaction it skipped.
func TestPool7WithdrawalRestarts(t *testing.T) {
	set, _, err := workload.Generate(workload.PaperDefaults(40, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{0, 28} {
		t.Run(fmt.Sprintf("withdraw-%d", victim), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			s, ts := newTestServer(t, path)
			for _, st := range set.Streams {
				postJSON(t, ts.URL+"/v1/streams", StreamRequest{
					Src: int(st.Src), Dst: int(st.Dst), Priority: st.Priority,
					Period: st.Period, Length: st.Length, Deadline: st.Deadline,
				}).Body.Close()
			}
			if n := s.ctl.Len(); n != 39 {
				t.Fatalf("admitted %d of pool 7's 40 streams, want 39", n)
			}
			wantStatus(t, withdrawHTTP(t, ts.URL, s.ctl.Streams()[victim].Handle), http.StatusOK)
			if s.ctl.Report().Feasible {
				t.Fatalf("withdrawing admitted stream #%d left the report feasible; the case no longer bites", victim)
			}
			want := committed(t, s.ctl.State())
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			for boot := 1; boot <= 2; boot++ {
				b, bts := bootFrom(t, path)
				if got := committed(t, b.ctl.State()); got != want {
					t.Fatalf("boot %d restored\n%s\nwant\n%s", boot, got, want)
				}
				m := metrics(t, bts.URL)
				for _, line := range []string{
					"rtwormd_compactions_skipped_total 1",
					"rtwormd_snapshot_compactions_total 0",
					"rtwormd_snapshot_tail_records 40",
				} {
					if !strings.Contains(m, line+"\n") {
						t.Fatalf("boot %d: metrics lack %q:\n%s", boot, line, m)
					}
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, file) {
					t.Fatalf("boot %d rewrote the file (err %v)", boot, err)
				}
				b.Close()
			}
		})
	}
}

// commitWorked drives n admissions through s, the first n streams of the
// worked example, and returns the committed state after each.
func commitWorked(t *testing.T, base string, s *Server, n int) []string {
	t.Helper()
	var states []string
	for i := 0; i < n; i++ {
		wantStatus(t, postJSON(t, base+"/v1/streams", paperStream(i)), http.StatusOK)
		states = append(states, committed(t, s.ctl.State()))
	}
	return states
}

// TestTornLastRecordBootsToLastAcknowledged cuts the file at every
// byte offset inside its last record: a crash mid-append. Each cut
// boots to the state of the commit before, and a daemon booted on it
// appends cleanly past the torn bytes.
func TestTornLastRecordBootsToLastAcknowledged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, path)
	empty := committed(t, s.ctl.State())
	states := commitWorked(t, ts.URL, s, 3)
	wantStatus(t, withdrawHTTP(t, ts.URL, 2), http.StatusOK)
	states = append(states, committed(t, s.ctl.State()))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := parseSnapshot(path, data, nil)
	if err != nil || len(sf.records) != 4 || sf.good != int64(len(data)) {
		t.Fatalf("parse: %d records, good %d of %d, err %v", len(sf.records), sf.good, len(data), err)
	}

	cut := filepath.Join(dir, "cut.json")
	// The last record, and the first, which leaves no whole record.
	for _, k := range []int{len(sf.offsets) - 1, 0} {
		end := int64(len(data))
		if k+1 < len(sf.offsets) {
			end = sf.offsets[k+1]
		}
		for at := sf.offsets[k]; at < end; at++ {
			if err := os.WriteFile(cut, data[:at], 0o644); err != nil {
				t.Fatal(err)
			}
			ctl, ok, err := LoadSnapshot(cut, admit.Config{})
			if err != nil || !ok {
				t.Fatalf("cut at %d: ok=%v err=%v", at, ok, err)
			}
			want := empty
			if k > 0 {
				want = states[k-1]
			}
			if got := committed(t, ctl.State()); got != want {
				t.Fatalf("cut at %d inside record %d restored\n%s\nwant\n%s", at, k, got, want)
			}
		}
		// A daemon booted on a torn file drops the torn bytes before
		// its first append.
		if err := os.WriteFile(cut, data[:end-1], 0o644); err != nil {
			t.Fatal(err)
		}
		b, bts := bootFrom(t, cut)
		wantStatus(t, postJSON(t, bts.URL+"/v1/streams", paperStream(4)), http.StatusOK)
		want := committed(t, b.ctl.State())
		b.Close()
		ctl, _, err := LoadSnapshot(cut, admit.Config{})
		if err != nil {
			t.Fatalf("after appending past a torn record %d: %v", k, err)
		}
		if got := committed(t, ctl.State()); got != want {
			t.Fatalf("after appending past a torn record %d:\n%s\nwant\n%s", k, got, want)
		}
	}

	// Torn bytes are cut off, not just overwritten: here a record that
	// does not parse ends with one that would, once the first append
	// overwrites the bytes before it.
	first, err := json.Marshal(record{Admit: []admit.SnapshotStream{admit.StreamOf(1, paperStream(0).spec())}})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(bytes.Repeat([]byte("x"), len(first)+1), `{"withdraw":1}`+"\n"...)
	if err := os.WriteFile(cut, append(data[:sf.docLen:sf.docLen], torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	b, bts := bootFrom(t, cut)
	wantStatus(t, postJSON(t, bts.URL+"/v1/streams", paperStream(0)), http.StatusOK)
	b.Close()
	ctl, _, err := LoadSnapshot(cut, admit.Config{})
	if err != nil || ctl.Len() != 1 {
		t.Fatalf("after appending over torn bytes: err %v, want 1 stream", err)
	}
}

// TestBootRefusesCorruptRecord: a record that is not last and does
// not parse, or whose replay gives other handles, refuses the boot,
// naming the path and the record's byte offset. A last record that
// does not parse is a torn append.
func TestBootRefusesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, path)
	states := commitWorked(t, ts.URL, s, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := parseSnapshot(path, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid, last := sf.offsets[1], sf.offsets[2]
	// edit replaces old with new in the record at byte offset at.
	edit := func(at int64, old, new string) []byte {
		i := int(at)
		j := bytes.Index(data[i:], []byte(old))
		if j < 0 {
			t.Fatalf("%q not in the record", old)
		}
		return append(append(append([]byte(nil), data[:i+j]...), new...), data[i+j+len(old):]...)
	}
	cut := filepath.Join(dir, "edited.json")
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"middle record does not parse", edit(mid, `"admit"`, `"admit`), fmt.Sprintf("record at byte %d", mid)},
		{"middle record's replay gives other handles", edit(mid, `"handle":2`, `"handle":7`), fmt.Sprintf("record at byte %d", mid)},
		{"middle record names no mutation", edit(mid, `"admit"`, `"other"`), fmt.Sprintf("record at byte %d", mid)},
	} {
		if err := os.WriteFile(cut, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadSnapshot(cut, admit.Config{})
		if err == nil || !strings.Contains(err.Error(), cut) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err %v, want the path and %q", c.name, err, c.want)
		}
	}
	if err := os.WriteFile(cut, edit(last, `"admit"`, `"admit`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctl, _, err := LoadSnapshot(cut, admit.Config{})
	if err != nil {
		t.Fatalf("last record does not parse: %v", err)
	}
	if got := committed(t, ctl.State()); got != states[1] {
		t.Fatalf("last record does not parse: restored\n%s\nwant\n%s", got, states[1])
	}
}

var errInjected = errors.New("injected failure")

// failing returns a seam that fails its first n calls, then defers to
// ok.
func failing[T any](n int, ok func(T) error) func(T) error {
	return func(v T) error {
		if n > 0 {
			n--
			return errInjected
		}
		return ok(v)
	}
}

// TestFailedAppendIsRetried: a record whose fdatasync fails leaves the
// file at its last good length and answers 500 + "committed": true;
// the next commit writes it along with its own.
func TestFailedAppendIsRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	s, ts := newTestServer(t, path)
	commitWorked(t, ts.URL, s, 1)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.commitMu.Lock()
	s.log.datasync = failing(1, fdatasync)
	s.commitMu.Unlock()

	resp := postJSON(t, ts.URL+"/v1/streams", paperStream(1))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if er := decode[ErrorResponse](t, resp); !er.Committed {
		t.Fatalf("error body: %+v", er)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed append left %d bytes, want the last good %d (err %v)", len(after), len(before), err)
	}
	if m := metrics(t, ts.URL); !strings.Contains(m, "rtwormd_snapshot_errors_total 1\n") {
		t.Fatalf("append failure not counted:\n%s", m)
	}

	wantStatus(t, postJSON(t, ts.URL+"/v1/streams", paperStream(2)), http.StatusOK)
	ctl, _, err := LoadSnapshot(path, admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := committed(t, ctl.State()), committed(t, s.ctl.State()); got != want {
		t.Fatalf("after the retry the file restores\n%s\nwant\n%s", got, want)
	}
}

// TestCompaction churns one stream in and out until the tail passes
// its bound. The commit that crosses it rewrites the file as one
// document. A directory fsync that fails there answers 500 +
// "committed": true and is counted, the file still boots to the
// committed state, and the next commit writes the file again.
func TestCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	s, ts := newTestServer(t, path)
	commitWorked(t, ts.URL, s, 2) // the document stays under the bound's floor
	churn := func() *http.Response {
		if s.ctl.Len() == 2 {
			return postJSON(t, ts.URL+"/v1/streams", paperStream(2))
		}
		return withdrawHTTP(t, ts.URL, s.ctl.Streams()[2].Handle)
	}
	commits := 2
	for s.compactions.Load() == 0 {
		wantStatus(t, churn(), http.StatusOK)
		commits++
		if commits > 5000 {
			t.Fatal("no compaction in 5000 commits")
		}
	}
	if commits < 200 {
		t.Fatalf("compacted after %d commits; want at most one compaction per 200", commits)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := parseSnapshot(path, data, nil)
	if err != nil || len(sf.records) != 0 {
		t.Fatalf("compacted file: %d records, err %v", len(sf.records), err)
	}
	if m := metrics(t, ts.URL); !strings.Contains(m, "rtwormd_snapshot_tail_records 0\n") {
		t.Fatalf("tail gauge after compaction:\n%s", m)
	}

	// The next compaction's directory fsync fails twice.
	s.commitMu.Lock()
	s.log.syncDir = failing(2, syncDir)
	s.commitMu.Unlock()
	resp := churn()
	for ; resp.StatusCode == http.StatusOK; resp = churn() {
		resp.Body.Close()
	}
	if resp.StatusCode != http.StatusInternalServerError || s.compactions.Load() != 1 {
		t.Fatalf("status %d after %d compactions, want 500 after 1", resp.StatusCode, s.compactions.Load())
	}
	if er := decode[ErrorResponse](t, resp); !er.Committed || !strings.Contains(er.Error, "injected") {
		t.Fatalf("error body: %+v", er)
	}
	restores := func(when string) {
		t.Helper()
		ctl, _, err := LoadSnapshot(path, admit.Config{})
		if err != nil {
			t.Fatalf("file %s: %v", when, err)
		}
		if got, want := committed(t, ctl.State()), committed(t, s.ctl.State()); got != want {
			t.Fatalf("file %s restores\n%s\nwant\n%s", when, got, want)
		}
	}
	restores("after a failed directory fsync")
	// The next commit rewrites the file, and fails once more; the one
	// after succeeds.
	wantStatus(t, churn(), http.StatusInternalServerError)
	wantStatus(t, churn(), http.StatusOK)
	if got := s.snapshotErrs.Load(); got != 2 {
		t.Fatalf("snapshot errors %d, want 2", got)
	}
	restores("after recovery")
}

// TestCloseFencesCommits: a mutation held in MutationDelay while Close
// (or a Shutdown whose drain deadline has passed) runs commits before
// it returns or never: once it has returned, neither the controller
// nor the file changes.
func TestCloseFencesCommits(t *testing.T) {
	for _, stop := range []struct {
		name string
		stop func(*Server) error
	}{
		{"close", (*Server).Close},
		{"shutdown-past-deadline", func(s *Server) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return s.Shutdown(ctx)
		}},
	} {
		t.Run(stop.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			ctl, err := admit.New(topology.NewMesh2D(10, 10), admit.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Controller: ctl, SnapshotPath: path, MutationDelay: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- s.Serve(ln) }()
			posted := make(chan struct{})
			go func() {
				defer close(posted)
				body, _ := json.Marshal(paperStream(0))
				resp, err := http.Post("http://"+ln.Addr().String()+"/v1/streams", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}()
			for deadline := time.Now().Add(5 * time.Second); s.InFlight() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("request never became in flight")
				}
			}
			if err := stop.stop(s); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			state := committed(t, ctl.State())
			<-served
			<-posted
			for deadline := time.Now().Add(5 * time.Second); s.InFlight() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("handler never finished")
				}
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, file) {
				t.Fatalf("the file changed after %s returned (err %v)", stop.name, err)
			}
			if got := committed(t, ctl.State()); got != state {
				t.Fatalf("a commit landed after %s returned:\n%s", stop.name, got)
			}
		})
	}
}

// fuzzSeed is a valid snapshot file: an empty document and four
// records, three admissions and a withdrawal.
func fuzzSeed(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "state.json")
	ctl, err := admit.New(topology.NewMesh2D(10, 10), admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Controller: ctl, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if code, body := s.commit(&s.admitLat, s.admit([]admit.Spec{paperStream(i).spec()})); code != http.StatusOK {
			t.Fatalf("admit %d: %d %+v", i, code, body)
		}
	}
	if code, body := s.commit(&s.withdrawLat, s.withdraw(2)); code != http.StatusOK {
		t.Fatalf("withdraw: %d %+v", code, body)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzLoadSnapshot: LoadSnapshot never panics on document-plus-tail
// bytes. It refuses, naming the path and a byte offset, or it loads a
// controller. Then the file a daemon booted on it leaves behind, and the
// controller's re-saved document when its report is feasible, load to
// the same state.
func FuzzLoadSnapshot(f *testing.F) {
	valid := fuzzSeed(f)
	sf, err := parseSnapshot("seed", valid, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-4])                                                                     // a torn last record
	f.Add(bytes.Replace(valid, []byte(`"admit":[{"handle":2`), []byte(`"admit":[{"handle":2,`), 1)) // a corrupt middle record
	f.Add(valid[:sf.docLen/2])                                                                      // a half-truncated document
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := admit.Config{Workers: 1}
		ctl, ok, err := LoadSnapshot(path, cfg)
		if err != nil {
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "byte ") {
				t.Fatalf("refusal names no path and byte offset: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("an existing file loaded as absent")
		}
		want := committed(t, ctl.State())
		s, err := New(Config{Controller: ctl, SnapshotPath: path})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		resaved := []string{path}
		if ctl.Report().Feasible {
			doc := filepath.Join(dir, "doc.json")
			if err := SaveSnapshot(ctl, doc); err != nil {
				t.Fatal(err)
			}
			resaved = append(resaved, doc)
		}
		for _, p := range resaved {
			again, _, err := LoadSnapshot(p, cfg)
			if err != nil {
				t.Fatalf("re-saved file %s does not load: %v", filepath.Base(p), err)
			}
			if got := committed(t, again.State()); got != want {
				t.Fatalf("re-saved file %s loads\n%s\nwant\n%s", filepath.Base(p), got, want)
			}
		}
	})
}
