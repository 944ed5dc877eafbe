package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/sim"
)

var testScenario = json.RawMessage(`{"configs":[{"preset":"XBar/OCM"}],"workloads":["Uniform"],"requests":100}`)

func cell(idx int, cycles uint64) core.CellResult {
	return core.CellResult{Index: idx, Row: idx, Col: 0, Workload: "Uniform", Config: "XBar/OCM",
		Result: core.Result{Config: "XBar/OCM", Workload: "Uniform", Requests: 100, Cycles: sim.Time(cycles)}}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	sub := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if err := s.AppendSubmit("job-000001", testScenario, 2, sub, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	c0, c1 := cell(0, 100), cell(1, 200)
	c1.Index, c1.Row = 1, 1
	if err := s.AppendCell("job-000001", c0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCell("job-000001", c1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStatus("job-000001", "done", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	jobs := s2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.ID != "job-000001" || j.Total != 2 || j.Status != "done" ||
		j.Timeout != 3*time.Minute || !j.Submitted.Equal(sub) {
		t.Fatalf("replayed job = %+v", j)
	}
	if string(j.Scenario) != string(testScenario) {
		t.Fatalf("scenario round-trip: %s", j.Scenario)
	}
	if len(j.Cells) != 2 || j.Cells[0].Index != 0 || j.Cells[1].Index != 1 {
		t.Fatalf("cells = %+v", j.Cells)
	}
}

func TestInterruptedJobHasNoStatus(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.AppendSubmit("job-000001", testScenario, 4, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCell("job-000001", cell(2, 50)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jobs := mustOpen(t, dir).Jobs()
	if len(jobs) != 1 || jobs[0].Status != "" || len(jobs[0].Cells) != 1 {
		t.Fatalf("interrupted job = %+v", jobs)
	}
}

func TestDuplicateCellsDeduplicated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.AppendSubmit("j", testScenario, 1, time.Now().UTC(), 0)
	s.AppendCell("j", cell(0, 100))
	s.AppendCell("j", cell(0, 100))
	s.Close()
	jobs := mustOpen(t, dir).Jobs()
	if len(jobs[0].Cells) != 1 {
		t.Fatalf("duplicate cell survived replay: %d cells", len(jobs[0].Cells))
	}
}

// TestTornTailIsTruncated hand-corrupts the journal tail three ways — a
// frame cut mid-payload, a frame cut mid-header, a CRC flip — and asserts
// each reopens to exactly the intact prefix, with the debris physically
// truncated so later appends extend a clean file.
func TestTornTailIsTruncated(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"mid-payload", func(t *testing.T, path string) { chop(t, path, 5) }},
		{"mid-header", func(t *testing.T, path string) {
			// A crash can also land mid-frame-header: append 4 stray bytes
			// of a half-written length word to an otherwise intact file.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{9, 0, 0, 0})
			f.Close()
		}},
		{"crc-flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			s.AppendSubmit("j", testScenario, 2, time.Now().UTC(), 0)
			s.AppendCell("j", cell(0, 100))
			s.AppendCell("j", cell(1, 200)) // this frame gets damaged
			path := s.f.Name()
			s.Close()
			c.mut(t, path)

			s2 := mustOpen(t, dir)
			jobs := s2.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("replayed %d jobs, want 1", len(jobs))
			}
			wantCells := 1
			if c.name == "mid-header" {
				wantCells = 2 // the damage was appended after an intact file
			}
			if len(jobs[0].Cells) != wantCells {
				t.Fatalf("replayed %d cells, want %d", len(jobs[0].Cells), wantCells)
			}
			// The file must now end cleanly: append and reopen once more.
			if err := s2.AppendStatus("j", "done", ""); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			jobs = mustOpen(t, dir).Jobs()
			if jobs[0].Status != "done" {
				t.Fatalf("append after truncation lost: %+v", jobs[0])
			}
		})
	}
}

// chop removes the last n bytes of the file.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(Record{Type: "header", Schema: Schema + 1})
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(frame[8:], payload)
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Open of future-schema journal: %v, want schema error", err)
	}
}

func TestCompactDropsEvictedJobs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		s.AppendSubmit(id, testScenario, 1, time.Now().UTC(), 0)
		s.AppendCell(id, cell(0, 100))
		s.AppendStatus(id, "done", "")
	}
	before := s.f.Name()
	// One evicted job of three is less garbage than the live bytes: it
	// leaves memory at once, but the segment stays.
	if err := s.Evict("job-000001"); err != nil {
		t.Fatal(err)
	}
	if s.f.Name() != before {
		t.Fatal("compacted with garbage below the live bytes")
	}
	if jobs := s.Jobs(); len(jobs) != 2 || jobs[0].ID != "job-000002" {
		t.Fatalf("jobs after evicting job-000001 = %+v", jobs)
	}
	// A second eviction tips the garbage over the live bytes.
	if err := s.Evict("job-000002"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(before); !os.IsNotExist(err) {
		t.Fatalf("old segment %s still present after compaction", before)
	}
	// The survivor's frames are read back from their new places.
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != "job-000003" ||
		len(jobs[0].Cells) != 1 || jobs[0].Status != "done" {
		t.Fatalf("jobs read back after compaction = %+v", jobs)
	}
	// Appends continue into the new segment and everything replays.
	if err := s.AppendSubmit("job-000004", testScenario, 1, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	jobs := mustOpen(t, dir).Jobs()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	want := []string{"job-000003", "job-000004"}
	if !slices.Equal(ids, want) {
		t.Fatalf("jobs after compaction = %v, want %v", ids, want)
	}
}

func TestOpenPrefersHighestSegment(t *testing.T) {
	// A crash between compaction's rename and the old segment's deletion
	// leaves two segments; the higher (newer) one is authoritative.
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.AppendSubmit("keep", testScenario, 1, time.Now().UTC(), 0)
	s.Close()
	// Fabricate a stale lower segment by renaming the real one up.
	if err := os.Rename(filepath.Join(dir, "journal-000001.wal"),
		filepath.Join(dir, "journal-000002.wal")); err != nil {
		t.Fatal(err)
	}
	stale := mustOpen(t, t.TempDir())
	stale.AppendSubmit("stale", testScenario, 1, time.Now().UTC(), 0)
	stale.Close()
	raw, err := os.ReadFile(filepath.Join(stale.dir, "journal-000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "keep" {
		t.Fatalf("jobs = %+v, want only the higher segment's", jobs)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal-000001.wal")); !os.IsNotExist(err) {
		t.Error("superseded lower segment not removed at open")
	}
}

func TestEmptyAndFreshDirectories(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("fresh store has %d jobs", len(jobs))
	}
	s.Close()
	// Reopen of a header-only journal.
	s2 := mustOpen(t, dir)
	if jobs := s2.Jobs(); len(jobs) != 0 {
		t.Fatalf("header-only store has %d jobs", len(jobs))
	}
}

// quietStore opens an unsynced store that logs nowhere, for tests that
// append thousands of frames.
func quietStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// referenceCompaction is the compaction oracle: it re-encodes the jobs
// record by record — header, submit, cells in append order, and the status
// when one is set — as a compactor that keeps decoded state must.
func referenceCompaction(t *testing.T, jobs []JobState) []byte {
	t.Helper()
	recs := []Record{{Type: "header", Schema: Schema}}
	for _, js := range jobs {
		recs = append(recs, Record{Type: "submit", Job: js.ID, Scenario: js.Scenario,
			Total: js.Total, Submitted: js.Submitted, Timeout: js.Timeout})
		for i := range js.Cells {
			recs = append(recs, Record{Type: "cell", Job: js.ID, Cell: &js.Cells[i]})
		}
		if js.Status != "" {
			recs = append(recs, Record{Type: "status", Job: js.ID, Status: js.Status, Error: js.Error})
		}
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	return buf.Bytes()
}

// TestCompactionMatchesReencode pins verbatim compaction to the oracle: the
// compacted segment is byte-identical to re-encoding the surviving jobs,
// across superseded statuses, duplicate cells, unfinished jobs, deadlines,
// and a pretty-printed scenario body — both for jobs appended in this
// process and for jobs replayed from disk.
func TestCompactionMatchesReencode(t *testing.T) {
	pretty := json.RawMessage("{\n  \"configs\": [{\"preset\": \"XBar/OCM\"}],\n  \"workloads\": [\"Uniform\"]\n}")
	rng := rand.New(rand.NewPCG(12, 2008))
	for _, reopen := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen=%v", reopen), func(t *testing.T) {
			dir := t.TempDir()
			s := quietStore(t, dir)
			var ids []string
			for j := 0; j < 24; j++ {
				id := fmt.Sprintf("job-%06d", j+1)
				ids = append(ids, id)
				sc := testScenario
				if j%3 == 0 {
					sc = pretty
				}
				sub := time.Date(2026, 8, 7, 12, 0, 0, rng.IntN(1e9), time.UTC)
				if err := s.AppendSubmit(id, sc, 6, sub, time.Duration(rng.IntN(3))*time.Minute); err != nil {
					t.Fatal(err)
				}
				for c := rng.IntN(7); c > 0; c-- {
					if err := s.AppendCell(id, cell(rng.IntN(6), rng.Uint64N(1e6))); err != nil {
						t.Fatal(err)
					}
				}
				for st := rng.IntN(3); st > 0; st-- { // none, one, or a superseded pair
					if err := s.AppendStatus(id, []string{"done", "failed"}[rng.IntN(2)], fmt.Sprintf("detail %d", st)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if reopen {
				s.Close()
				s = quietStore(t, dir)
			}
			evict := ids[:20]
			var survivors []JobState
			for _, js := range s.Jobs() {
				if !slices.Contains(evict, js.ID) {
					survivors = append(survivors, js)
				}
			}
			want := referenceCompaction(t, survivors)
			seg := s.seg
			if err := s.Evict(evict...); err != nil {
				t.Fatal(err)
			}
			if s.seg == seg {
				t.Fatal("evicting 20 of 24 jobs did not compact")
			}
			got, err := os.ReadFile(s.segPath(s.seg))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("compacted segment (%d bytes) differs from the re-encoded reference (%d bytes)", len(got), len(want))
			}
			if int64(len(got)) != s.live || s.size != s.live {
				t.Fatalf("after compaction size=%d live=%d, segment holds %d bytes", s.size, s.live, len(got))
			}
			s.Close()
			if jobs := quietStore(t, dir).Jobs(); !reflect.DeepEqual(jobs, survivors) {
				t.Fatalf("replay of the compacted segment differs:\n got %+v\nwant %+v", jobs, survivors)
			}
		})
	}
}

// TestCompactionAmortized drives a retention window through many
// submit/evict cycles and asserts the compaction bound: bytes rewritten by
// compaction never exceed the bytes appended plus one live journal, and the
// segment never grows past twice its live bytes once an eviction returns.
func TestCompactionAmortized(t *testing.T) {
	const cycles, retain = 600, 8
	s := quietStore(t, t.TempDir())
	var appended, rewritten, maxLive int64
	var window []string
	compactions := 0
	for i := 0; i < cycles; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		before := s.size
		if err := s.AppendSubmit(id, testScenario, 4, time.Now().UTC(), 0); err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= i%4; c++ {
			if err := s.AppendCell(id, cell(c, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AppendStatus(id, "done", ""); err != nil {
			t.Fatal(err)
		}
		appended += s.size - before
		maxLive = max(maxLive, s.live)
		if window = append(window, id); len(window) <= retain {
			continue
		}
		seg := s.seg
		if err := s.Evict(window[0]); err != nil {
			t.Fatal(err)
		}
		window = window[1:]
		if s.seg != seg {
			compactions++
			rewritten += s.size
		}
		if s.size > 2*s.live {
			t.Fatalf("cycle %d: segment %d bytes, live %d: garbage outgrew the live bytes", i, s.size, s.live)
		}
	}
	if compactions == 0 {
		t.Fatal("no compaction in the whole run")
	}
	if rewritten > appended+maxLive {
		t.Fatalf("compaction rewrote %d bytes for %d appended (live at most %d)", rewritten, appended, maxLive)
	}
	t.Logf("%d cycles: %d compactions rewrote %d bytes for %d appended", cycles, compactions, rewritten, appended)
}

// TestAppendForUnknownJobRefused pins the orphan guard: a cell or status for
// a job the store does not hold — never submitted, or already evicted — is
// refused without writing a byte or wedging the store.
func TestAppendForUnknownJobRefused(t *testing.T) {
	s := quietStore(t, t.TempDir())
	if err := s.AppendSubmit("evicted", testScenario, 1, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("evicted"); err != nil {
		t.Fatal(err)
	}
	size := s.size
	for _, id := range []string{"ghost", "evicted"} {
		if err := s.AppendCell(id, cell(0, 1)); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("AppendCell(%s) = %v, want ErrUnknownJob", id, err)
		}
		if err := s.AppendStatus(id, "done", ""); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("AppendStatus(%s) = %v, want ErrUnknownJob", id, err)
		}
	}
	if s.size != size {
		t.Errorf("refused appends wrote %d bytes", s.size-size)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("refused appends wedged the store: %v", err)
	}
}
