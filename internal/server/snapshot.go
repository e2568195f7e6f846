package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/admit"
)

// The snapshot file is a snapshot document followed by its tail. The
// document is an admit.Snapshot as indented JSON and a newline, the
// whole of what SaveSnapshot writes. The tail holds one compact JSON
// line per commit since the document, in commit order. A commit is
// durable once its line, newline included, is; LoadSnapshot restores
// the document and replays the tail.

// record is one line of the tail: the streams one commit admitted,
// with the handles they got, or the handle it withdrew.
type record struct {
	Admit    []admit.SnapshotStream `json:"admit,omitempty"`
	Withdraw admit.Handle           `json:"withdraw,omitempty"`
}

// replay applies r to c, which must hand out the recorded handles.
func (r *record) replay(c *admit.Controller) error {
	if r.Withdraw != 0 {
		_, err := c.Withdraw(r.Withdraw)
		return err
	}
	specs := make([]admit.Spec, len(r.Admit))
	for k, ss := range r.Admit {
		specs[k] = ss.Spec()
	}
	res, err := c.AdmitBatch(specs)
	if err != nil {
		return err
	}
	if !res.Admitted {
		return fmt.Errorf("replay rejects the admission: %s", res.Rejection)
	}
	for k, ss := range r.Admit {
		if res.Handles[k] != ss.Handle {
			return fmt.Errorf("replay gives handle %d where the record has %d", res.Handles[k], ss.Handle)
		}
	}
	return nil
}

// snapshotFile is a parsed snapshot file.
type snapshotFile struct {
	docLen  int64    // bytes of the document, its newline included
	records []record // the tail's whole records
	offsets []int64  // byte offset of each record
	good    int64    // bytes through the last whole record
}

// parseSnapshot splits data into the document, which it decodes into
// doc unless doc is nil, and the records of its tail. The tail's last
// line is a torn append, and is ignored, when it has no newline or does
// not parse: a crash cut the write short, so its commit was never
// acknowledged. Any other line that does not parse refuses the file.
func parseSnapshot(path string, data []byte, doc *admit.Snapshot) (*snapshotFile, error) {
	end := valueEnd(data)
	if doc != nil {
		if err := json.Unmarshal(data[:end], doc); err != nil {
			// A truncated or corrupt file is an operator problem, not a
			// boot-fresh situation: refuse loudly, naming the file and
			// where parsing died, rather than silently discarding
			// admitted state.
			var syn *json.SyntaxError
			if errors.As(err, &syn) {
				return nil, fmt.Errorf("server: snapshot %s: corrupt or truncated at byte %d of %d: %w",
					path, syn.Offset, len(data), err)
			}
			return nil, fmt.Errorf("server: snapshot %s at byte 0: %w", path, err)
		}
	}
	if end < len(data) && data[end] == '\n' {
		end++
	}
	f := &snapshotFile{docLen: int64(end), good: int64(end)}
	for rest := data[end:]; ; {
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			return f, nil
		}
		var r record
		err := json.Unmarshal(rest[:n], &r)
		if err == nil && (len(r.Admit) > 0) == (r.Withdraw != 0) {
			err = errors.New("a record admits streams or withdraws one handle")
		}
		if err != nil {
			if n+1 == len(rest) {
				return f, nil
			}
			return nil, fmt.Errorf("server: snapshot %s: record at byte %d: %w", path, f.good, err)
		}
		f.records = append(f.records, r)
		f.offsets = append(f.offsets, f.good)
		f.good += int64(n + 1)
		rest = rest[n+1:]
	}
}

// valueEnd returns the length of the JSON object or array data starts
// with, found by matching brackets outside strings; len(data) when it
// never closes. Decoding the prefix it marks validates it.
func valueEnd(data []byte) int {
	depth := 0
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return len(data)
}

// boot makes the snapshot file describe the controller before the
// server serves. A file there is the one the controller was restored
// from: it stays, and is compacted when it has a tail. Without a file,
// or when its tail does not parse, the file is written from the
// controller.
func (s *Server) boot() error {
	write := s.compact
	if !s.log.reopen() {
		doc, err := marshalSnapshot(s.ctl)
		if err != nil {
			return fmt.Errorf("server: snapshot %s: %w", s.log.path, err)
		}
		write = func() error { return s.log.rewrite(doc) }
	} else if s.log.records == 0 {
		return nil
	}
	//rtwlint:ignore errdrop a failed write leaves the file for the first commit to rewrite, and that commit reports it
	_ = write()
	s.tailRecords.Store(int64(s.log.records))
	return nil
}

// persist appends the commit's record to the snapshot file, durably,
// and compacts the file once its tail passes compactBound; a no-op
// without a path. The caller holds commitMu.
func (s *Server) persist(rec *record) error {
	l := s.log
	if l == nil {
		return nil
	}
	t0 := time.Now()
	line, err := json.Marshal(rec)
	if err == nil {
		err = l.append(append(line, '\n'))
	}
	if err == nil && l.size-l.docLen > compactBound(l.docLen) {
		err = s.compact()
	}
	s.tailRecords.Store(int64(l.records))
	s.mu.Lock()
	s.persistLat.Observe(int(time.Since(t0).Microseconds()))
	s.mu.Unlock()
	if err != nil {
		s.snapshotErrs.Add(1)
	}
	return err
}

// compact rewrites the snapshot file as the committed state's
// document, dropping the tail, when Restore accepts that document: the
// report is feasible. An infeasible state keeps its tail, whose replay
// reproduces it, and the skip is counted. The caller holds commitMu.
func (s *Server) compact() error {
	if !s.ctl.Report().Feasible {
		s.compactSkips.Add(1)
		return nil
	}
	if err := s.log.compact(s.ctl); err != nil {
		return err
	}
	s.compactions.Add(1)
	return nil
}

// compactBound is the tail size, in bytes, past which a commit
// compacts the file behind a document of docLen bytes.
func compactBound(docLen int64) int64 { return max(4*docLen, 64<<10) }

// snapshotLog appends each commit's record to the snapshot file.
// Server.commitMu guards it.
type snapshotLog struct {
	path    string
	f       *os.File // open on path; nil while the file must be rewritten
	base    []byte   // while f is nil: the document to rewrite it from
	docLen  int64    // bytes of the document at the head of the file
	size    int64    // durable bytes: the document and the records after it
	records int      // durable records after the document
	pend    []byte   // records committed in memory but not yet durable
	npend   int
	torn    bool // the file may hold bytes past size

	datasync func(*os.File) error // fdatasync; tests make it fail
	syncDir  func(string) error   // the directory fsync; tests make it fail
}

// reopen opens the file at path for appending, if its tail parses.
func (l *snapshotLog) reopen() bool {
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return false
	}
	var data []byte
	fi, err := f.Stat()
	if err == nil {
		data = make([]byte, fi.Size())
		_, err = io.ReadFull(f, data)
	}
	var sf *snapshotFile
	if err == nil {
		sf, err = parseSnapshot(l.path, data, nil)
	}
	if err != nil {
		_ = f.Close() // only read
		return false
	}
	l.f, l.docLen, l.size, l.records = f, sf.docLen, sf.good, len(sf.records)
	l.torn = sf.good < int64(len(data))
	return true
}

// append makes line durable after any pending records. On failure the
// file is cut back to its last good length and the records stay
// pending, for the next commit to retry.
func (l *snapshotLog) append(line []byte) error {
	l.pend = append(l.pend, line...)
	l.npend++
	if l.f == nil {
		return l.rewrite(l.base)
	}
	if l.torn {
		if err := l.f.Truncate(l.size); err != nil {
			return err
		}
		l.torn = false
	}
	_, err := l.f.WriteAt(l.pend, l.size)
	if err == nil {
		err = l.datasync(l.f)
	}
	if err != nil {
		l.torn = l.f.Truncate(l.size) != nil
		return err
	}
	l.size += int64(len(l.pend))
	l.records += l.npend
	l.pend, l.npend = l.pend[:0], 0
	return nil
}

// compact rewrites the file as the document of c's committed state,
// which pending records are part of.
func (l *snapshotLog) compact(c *admit.Controller) error {
	doc, err := marshalSnapshot(c)
	if err != nil {
		return err
	}
	l.pend, l.npend = l.pend[:0], 0
	return l.rewrite(doc)
}

// rewrite replaces the file with doc and the pending records, written
// the way SaveSnapshot writes, and reopens it. On failure the file is
// left for the next commit to rewrite from doc.
func (l *snapshotLog) rewrite(doc []byte) error {
	l.close()
	l.base = doc
	data := append(slices.Clip(doc), l.pend...)
	if err := writeAtomic(l.path, data, l.syncDir); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	l.f, l.base, l.torn = f, nil, false
	l.docLen, l.size = int64(len(doc)), int64(len(data))
	l.records, l.pend, l.npend = l.npend, l.pend[:0], 0
	return nil
}

func (l *snapshotLog) close() {
	if l.f != nil {
		_ = l.f.Close() // every write through f was synced before it returned
		l.f = nil
	}
}

func marshalSnapshot(c *admit.Controller) ([]byte, error) {
	sn, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// SaveSnapshot writes the controller's committed state to path as a
// snapshot document with no tail. The document lands in a temp file in
// the same directory, which is fsynced and renamed over the target; the
// directory is then fsynced, so the rename survives a crash too. A
// crash mid-write leaves the previous file whole.
func SaveSnapshot(c *admit.Controller, path string) error {
	doc, err := marshalSnapshot(c)
	if err != nil {
		return err
	}
	return writeAtomic(path, doc, syncDir)
}

func writeAtomic(path string, data []byte, syncDir func(string) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rtwormd-snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSnapshot reads a snapshot file and rebuilds its controller: it
// restores the document, then replays the tail's records through
// AdmitBatch and Withdraw, so the controller's state is the one the
// last durable commit left. The boolean reports whether a snapshot
// existed; (nil, false, nil) means "no file — boot fresh". A refusal
// names the path and the byte offset at which the file went wrong.
func LoadSnapshot(path string, cfg admit.Config) (*admit.Controller, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var doc admit.Snapshot
	f, err := parseSnapshot(path, data, &doc)
	if err != nil {
		return nil, false, err
	}
	c, err := admit.Restore(&doc, cfg)
	if err != nil {
		return nil, false, fmt.Errorf("server: snapshot %s at byte 0: %w", path, err)
	}
	for i := range f.records {
		if err := f.records[i].replay(c); err != nil {
			return nil, false, fmt.Errorf("server: snapshot %s: record at byte %d: %w", path, f.offsets[i], err)
		}
	}
	if len(f.records) > 0 {
		c.ResetStats()
	}
	return c, true, nil
}
