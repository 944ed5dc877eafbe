// Package store persists corona-serve's job registry as a schema-versioned,
// append-only journal, so a daemon killed at any instant restarts with every
// submission, every completed cell, and every terminal status it had durably
// written — the durability layer the restart-resume guarantee is built on.
//
// On-disk layout: the journal lives in one segment file, journal-NNNNNN.wal,
// inside the store directory. A segment is a sequence of frames
//
//	uint32 payload length (little endian)
//	uint32 CRC-32C of the payload (little endian)
//	payload (one JSON-encoded Record)
//
// whose first frame is a header record carrying the schema version. Appends
// go to the end of the highest-numbered segment and are fsynced by default.
// Replay tolerates a truncated or torn tail — a crash mid-append leaves a
// short or CRC-invalid final frame, which Open discards by truncating the
// file back to the last good frame, exactly as if the append had never
// started.
//
// Retention and compaction: the store keeps each live job as the places in
// the segment of the frames it wrote — the submit frame, the first frame
// per cell index, the latest status frame — not as decoded records. A job
// the server evicts (Evict) leaves memory at once and its frames become
// garbage, like superseded and duplicate frames. Once the garbage reaches
// the live bytes (the header plus the kept frames), the kept frames are
// copied verbatim into a new next-numbered segment through a temp file and
// an atomic rename, like the sweep cache's entry writes: a crash leaves the
// old segment intact or the new one complete, and Open deletes leftover
// temp files and superseded segments. Each garbage byte pays for at most one
// rewritten byte, so compaction rewrites no more than was appended.
//
// Failure semantics: the first append or compaction error — a real disk
// failure or an injected one (internal/faultinject, points
// "store.append.before", "store.append.torn", "store.append.sync",
// "store.compact.rename") — wedges the store: the error is remembered,
// every later operation returns it, and nothing more is written. A wedged
// store is how the chaos suite models a machine dying at a write point: no
// byte after the failure reaches the journal, and reopening the directory
// must recover everything before it. See docs/OPERATIONS.md.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
)

// Schema versions the journal's record layout. Bump it whenever Record or
// core.CellResult gains, loses, or reinterprets a field; Open refuses a
// journal written by a different schema rather than resurrecting
// wrong-shaped jobs.
const Schema = 1

// maxFrame bounds a frame payload; anything larger on replay is corruption,
// not data (a whole 6x15 sweep cell is ~1 KiB).
const maxFrame = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrUnknownJob is returned by AppendCell and AppendStatus for a job the
// store has no submit record for (never submitted, or already evicted):
// such a frame would be an orphan that replay drops.
var ErrUnknownJob = errors.New("store: unknown job")

// Record is one journal frame's payload. Type selects which fields are
// meaningful.
type Record struct {
	// Type is "header", "submit", "cell", or "status".
	Type string `json:"type"`
	// Schema is set on header records only.
	Schema int `json:"schema,omitempty"`
	// Job identifies the job every non-header record belongs to.
	Job string `json:"job,omitempty"`

	// Submit fields: the raw scenario JSON exactly as POSTed (re-parsed on
	// resume, so a stored job replays through the same validation as a live
	// one), the matrix size, the submission time, and the optional per-job
	// wall-clock deadline in nanoseconds.
	Scenario  json.RawMessage `json:"scenario,omitempty"`
	Total     int             `json:"total,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Timeout   time.Duration   `json:"timeout,omitempty"`

	// Cell is one completed sweep cell.
	Cell *core.CellResult `json:"cell,omitempty"`

	// Status fields: a terminal state ("done", "failed", "canceled",
	// "timed_out") and its error detail.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// encodeFrame returns rec's complete frame: length, CRC, JSON payload.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)
	return frame, nil
}

// headerFrame starts every segment; encoding a constant record cannot fail.
var headerFrame, _ = encodeFrame(Record{Type: "header", Schema: Schema})

// JobState is one job as reconstructed by replay: its submission, every
// durably recorded cell (deduplicated by index, in append order), and its
// terminal status — or Status == "" for a job the daemon was still working
// on when it died, which the server resumes.
type JobState struct {
	ID        string
	Scenario  json.RawMessage
	Total     int
	Submitted time.Time
	Timeout   time.Duration
	Cells     []core.CellResult
	Status    string
	Error     string
}

// Options configures Open.
type Options struct {
	// Logger receives replay summaries, tail-truncation warnings, and wedge
	// reports. Nil uses slog.Default().
	Logger *slog.Logger
	// NoSync skips the per-append fsync. Appends then survive a process
	// crash (the OS has the bytes) but not a machine crash; meant for tests
	// and benchmarks.
	NoSync bool
}

// Store is an open journal. Its methods are safe for concurrent use.
type Store struct {
	dir string
	log *slog.Logger
	nos bool

	mu     sync.Mutex
	f      *os.File
	seg    int
	broken error

	// size is the active segment's length; live is what compacting it
	// would write (the header plus every kept frame). size-live is garbage.
	size, live int64

	jobs  map[string]*jobFrames
	order []string // live job ids in first-submit order
}

// span locates one whole frame (header and payload) in the active segment.
type span struct{ off, n int64 }

// jobFrames is one live job as the frames it was journaled with, so
// compaction copies bytes instead of re-encoding records.
type jobFrames struct {
	submit span
	cells  []span       // the first frame per cell index, in append order
	seen   map[int]bool // cell indices already in cells
	status span         // the latest status frame; n == 0 while unfinished
}

// frames lists the job's kept frames in the order compaction writes them.
func (jf *jobFrames) frames() []*span {
	out := make([]*span, 0, len(jf.cells)+2)
	out = append(out, &jf.submit)
	for i := range jf.cells {
		out = append(out, &jf.cells[i])
	}
	if jf.status.n > 0 {
		out = append(out, &jf.status)
	}
	return out
}

// Open opens (creating if needed) the journal in dir and replays it.
func Open(dir string, opts Options) (*Store, error) {
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:  dir,
		log:  log,
		nos:  opts.NoSync,
		live: int64(len(headerFrame)),
		jobs: make(map[string]*jobFrames),
	}
	seg, stale, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	// Superseded segments and orphaned temp files are debris from a
	// completed (or crashed) compaction; the highest segment is the journal.
	for _, p := range stale {
		os.Remove(p)
	}
	if seg == 0 {
		seg = 1
	}
	s.seg = seg
	f, err := os.OpenFile(s.segPath(seg), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) segPath(seg int) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%06d.wal", seg))
}

// scanSegments returns the highest segment number in dir (0 when none) and
// the paths of everything superseded: lower-numbered segments and leftover
// compaction temp files.
func scanSegments(dir string) (int, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("store: %w", err)
	}
	highest, paths := 0, map[int]string{}
	var stale []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			stale = append(stale, filepath.Join(dir, name))
			continue
		}
		num, ok := strings.CutPrefix(name, "journal-")
		num, ok2 := strings.CutSuffix(num, ".wal")
		if !ok || !ok2 {
			continue
		}
		n, err := strconv.Atoi(num)
		if err != nil || n <= 0 {
			continue
		}
		paths[n] = filepath.Join(dir, name)
		if n > highest {
			highest = n
		}
	}
	for n, p := range paths {
		if n != highest {
			stale = append(stale, p)
		}
	}
	return highest, stale, nil
}

// replay reads the active segment, applies every intact frame, truncates a
// torn tail, and leaves the file positioned for appends. A fresh (empty)
// segment gets its header frame written here.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data := make([]byte, info.Size())
	if _, err := s.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return fmt.Errorf("store: replay read: %w", err)
	}
	var (
		off    int // end of the last intact frame
		n      int
		header bool
	)
	for len(data)-off >= 8 { // a shorter remainder is a torn frame header
		length := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > maxFrame || int64(length) > int64(len(data)-off-8) {
			break // absurd length or torn payload
		}
		end := off + 8 + int(length)
		payload := data[off+8 : end]
		if crc32.Checksum(payload, crcTable) != crc {
			break // torn or bit-flipped frame
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // CRC-valid JSON garbage should be impossible; treat as tail
		}
		if !header {
			if rec.Type != "header" {
				return fmt.Errorf("store: %s does not start with a header frame", s.f.Name())
			}
			if rec.Schema != Schema {
				return fmt.Errorf("store: journal schema %d, this build speaks %d (migrate or move the directory aside)", rec.Schema, Schema)
			}
			header = true
		} else {
			s.apply(rec, span{int64(off), int64(end - off)})
		}
		off = end
		n++
	}
	s.size = int64(off)
	if off < len(data) {
		s.log.Warn("store: truncating torn journal tail",
			"segment", s.f.Name(), "good_bytes", off, "dropped_bytes", len(data)-off)
		if err := s.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(off), io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !header {
		// Brand-new segment (or one that died before the header landed).
		return s.writeFrame(Record{Type: "header", Schema: Schema})
	}
	interrupted := 0
	for _, jf := range s.jobs {
		if jf.status.n == 0 {
			interrupted++
		}
	}
	s.log.Info("store: journal replayed",
		"segment", s.f.Name(), "frames", n, "jobs", len(s.jobs), "interrupted", interrupted)
	return nil
}

// apply folds one intact frame — replayed or just appended — into the live
// state, keeping its place when it is one a compaction must copy. Frames of
// unknown jobs, repeated submits, and repeated cell indices are not kept:
// they are garbage the next compaction drops.
func (s *Store) apply(rec Record, frame span) {
	switch rec.Type {
	case "submit":
		if rec.Job == "" {
			return
		}
		if _, dup := s.jobs[rec.Job]; dup {
			s.log.Warn("store: duplicate submit record ignored", "job", rec.Job)
			return
		}
		s.jobs[rec.Job] = &jobFrames{submit: frame, seen: make(map[int]bool)}
		s.order = append(s.order, rec.Job)
		s.live += frame.n
	case "cell":
		jf := s.jobs[rec.Job]
		if jf == nil || rec.Cell == nil || jf.seen[rec.Cell.Index] {
			return
		}
		jf.seen[rec.Cell.Index] = true
		jf.cells = append(jf.cells, frame)
		s.live += frame.n
	case "status":
		if jf := s.jobs[rec.Job]; jf != nil {
			s.live += frame.n - jf.status.n
			jf.status = frame
		}
	}
}

// writeFrame encodes rec, writes its frame at the end of the segment (s.size
// grows by the frame's length), and fsyncs (unless NoSync). The fault points
// bracket each sub-step so the chaos suite can kill the store before, during
// (a torn half-frame reaches the disk), or after the write. Any failure
// wedges the store. Callers hold s.mu (or are Open's single-threaded replay).
func (s *Store) writeFrame(rec Record) error {
	if err := faultinject.Fire("store.append.before"); err != nil {
		return s.wedge(err)
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return s.wedge(fmt.Errorf("store: encoding record: %w", err))
	}
	if err := faultinject.Fire("store.append.torn"); err != nil {
		// Simulated crash mid-write: half the frame reaches the disk, the
		// rest never does. Replay must discard it.
		s.f.Write(frame[:len(frame)/2])
		return s.wedge(err)
	}
	if _, err := s.f.Write(frame); err != nil {
		return s.wedge(fmt.Errorf("store: append: %w", err))
	}
	s.size += int64(len(frame))
	if err := faultinject.Fire("store.append.sync"); err != nil {
		// Simulated crash after the write: the frame is on disk (the chaos
		// suite asserts it survives) but the caller sees a dead store.
		return s.wedge(err)
	}
	if !s.nos {
		if err := s.f.Sync(); err != nil {
			return s.wedge(fmt.Errorf("store: fsync: %w", err))
		}
	}
	return nil
}

// wedge latches the store's first error: every later operation returns it
// and no further bytes are written, so nothing can land in the journal
// after a torn frame.
func (s *Store) wedge(err error) error {
	if s.broken == nil {
		s.broken = err
		s.log.Error("store: wedged; no further writes will be attempted", "err", err)
	}
	return s.broken
}

// append writes and applies one record. A cell or status for a job the
// store does not hold is refused without writing anything.
func (s *Store) append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if _, known := s.jobs[rec.Job]; !known && rec.Type != "submit" {
		return fmt.Errorf("%w %s", ErrUnknownJob, rec.Job)
	}
	off := s.size
	if err := s.writeFrame(rec); err != nil {
		return err
	}
	s.apply(rec, span{off, s.size - off})
	return nil
}

// AppendSubmit durably records a new job: its raw scenario JSON, matrix
// size, submission time, and optional deadline.
func (s *Store) AppendSubmit(id string, scenario json.RawMessage, total int, submitted time.Time, timeout time.Duration) error {
	if id == "" {
		return errors.New("store: empty job id")
	}
	return s.append(Record{Type: "submit", Job: id, Scenario: scenario,
		Total: total, Submitted: submitted, Timeout: timeout})
}

// AppendCell durably records one completed cell of a submitted job.
func (s *Store) AppendCell(id string, cell core.CellResult) error {
	return s.append(Record{Type: "cell", Job: id, Cell: &cell})
}

// AppendStatus durably records a submitted job's terminal status. Jobs
// without one are considered interrupted and are resumed by the next daemon
// to open the store.
func (s *Store) AppendStatus(id, status, errMsg string) error {
	return s.append(Record{Type: "status", Job: id, Status: status, Error: errMsg})
}

// Jobs returns every live job in first-submit order, read back from the
// segment and decoded. Meant for startup and tests: it reads and decodes
// every kept frame on each call. A job whose frames cannot be read back is
// logged and left out.
func (s *Store) Jobs() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobState, 0, len(s.order))
	var buf []byte
	var err error
	for _, id := range s.order {
		js := JobState{ID: id}
		for _, sp := range s.jobs[id].frames() {
			if buf, err = s.readFrame(buf, *sp); err != nil {
				s.log.Error("store: job left out", "job", id, "err", err)
				break
			}
			// Every kept frame decoded once already, at append or replay.
			var rec Record
			json.Unmarshal(buf[8:], &rec)
			switch rec.Type {
			case "submit":
				js.Scenario, js.Total, js.Submitted, js.Timeout = rec.Scenario, rec.Total, rec.Submitted, rec.Timeout
			case "cell":
				js.Cells = append(js.Cells, *rec.Cell)
			case "status":
				js.Status, js.Error = rec.Status, rec.Error
			}
		}
		if err == nil {
			out = append(out, js)
		}
	}
	return out
}

// readFrame reads the frame at sp into buf, grown as needed. Callers hold
// s.mu.
func (s *Store) readFrame(buf []byte, sp span) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(sp.n))[:sp.n]
	if _, err := s.f.ReadAt(buf, sp.off); err != nil {
		return buf, fmt.Errorf("reading back a frame: %w", err)
	}
	return buf, nil
}

// Err returns the error that wedged the store, or nil while it is healthy.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Evict drops jobs the server no longer retains: they leave memory at once
// and their frames become garbage. Once the garbage reaches the live bytes,
// the journal is compacted before Evict returns. Unknown ids are ignored.
func (s *Store) Evict(ids ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if jf := s.jobs[id]; jf != nil {
			for _, sp := range jf.frames() {
				s.live -= sp.n
			}
			delete(s.jobs, id)
		}
	}
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return s.jobs[id] == nil })
	if s.broken != nil {
		return s.broken
	}
	if s.size-s.live < s.live {
		return nil
	}
	return s.compact()
}

// compact writes the header and every kept frame, verbatim, to a temp file,
// fsyncs it, and renames it into place as the next segment — a crash
// mid-compaction leaves the old segment authoritative — and only then
// deletes the old segment. Callers hold s.mu.
func (s *Store) compact() error {
	next := s.seg + 1
	dst := s.segPath(next)
	tmp, err := os.CreateTemp(s.dir, "compact-*.tmp")
	if err != nil {
		return s.wedge(fmt.Errorf("store: compact: %w", err))
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	// bufio errors are sticky: a failed Write surfaces at Flush.
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(headerFrame)
	var buf []byte
	for _, id := range s.order {
		for _, sp := range s.jobs[id].frames() {
			if buf, err = s.readFrame(buf, *sp); err != nil {
				tmp.Close()
				return s.wedge(fmt.Errorf("store: compact: %w", err))
			}
			w.Write(buf)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return s.wedge(fmt.Errorf("store: compact write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return s.wedge(fmt.Errorf("store: compact sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return s.wedge(fmt.Errorf("store: compact close: %w", err))
	}
	if err := faultinject.Fire("store.compact.rename"); err != nil {
		return s.wedge(err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return s.wedge(fmt.Errorf("store: compact rename: %w", err))
	}
	syncDir(s.dir)
	f, err := os.OpenFile(dst, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return s.wedge(fmt.Errorf("store: compact reopen: %w", err))
	}
	old := s.f
	oldPath := s.segPath(s.seg)
	s.f, s.seg, s.size = f, next, int64(len(headerFrame))
	old.Close()
	os.Remove(oldPath)
	// The kept frames now sit back to back after the header, in the order
	// just written.
	for _, id := range s.order {
		for _, sp := range s.jobs[id].frames() {
			sp.off, s.size = s.size, s.size+sp.n
		}
	}
	s.log.Info("store: compacted", "segment", dst, "jobs", len(s.order), "bytes", s.live)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close syncs and closes the journal. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if s.broken == nil && !s.nos {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
