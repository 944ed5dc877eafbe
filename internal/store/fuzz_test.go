package store

import (
	"encoding/binary"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// journalFixture returns the bytes of a real journal: two jobs, one finished
// and one interrupted, written through the store itself.
func journalFixture(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	sub := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	s.AppendSubmit("job-000001", testScenario, 2, sub, time.Minute)
	s.AppendCell("job-000001", cell(0, 100))
	s.AppendCell("job-000001", cell(1, 200))
	s.AppendStatus("job-000001", "done", "")
	s.AppendSubmit("job-000002", testScenario, 2, sub, 0)
	s.AppendCell("job-000002", cell(1, 300))
	path := s.f.Name()
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzReplay feeds arbitrary bytes to Open as a journal segment. Whatever
// the bytes, Open either refuses them (no header, wrong schema) or replays
// an intact prefix: the file is truncated to a frame boundary, a second
// replay agrees with the first, appends keep working, and evicting every
// job leaves a journal that reopens empty. The seeds are the store tests'
// fixture journal whole and torn, truncated, CRC-flipped, and with an
// oversized length word.
func FuzzReplay(f *testing.F) {
	good := journalFixture(f)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-5])        // torn payload
	f.Add(append(good, 9, 0, 0, 0))  // torn frame header
	f.Add(good[:len(headerFrame)+3]) // truncated right after the header
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF // CRC mismatch on the last frame
	f.Add(flipped)
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[len(headerFrame):], maxFrame+1) // oversized first record
	f.Add(huge)
	quiet := Options{NoSync: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal-000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, quiet)
		if err != nil {
			return // not a journal this build accepts; refusing it is correct
		}
		jobs := s.Jobs()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != s.size {
			t.Fatalf("replay left a %d-byte file, store accounts for %d", info.Size(), s.size)
		}
		if s.live > s.size {
			t.Fatalf("live bytes %d exceed the segment's %d", s.live, s.size)
		}
		s.Close()

		s, err = Open(dir, quiet)
		if err != nil {
			t.Fatalf("reopening a replayed journal: %v", err)
		}
		defer s.Close()
		if again := s.Jobs(); !reflect.DeepEqual(again, jobs) {
			t.Fatalf("second replay differs:\n got %+v\nwant %+v", again, jobs)
		}
		fresh := "fuzz-new"
		ids := []string{}
		for _, js := range jobs {
			ids = append(ids, js.ID)
			if js.ID == fresh {
				fresh += "-again"
			}
		}
		if err := s.AppendSubmit(fresh, testScenario, 1, time.Unix(0, 0).UTC(), 0); err != nil {
			t.Fatalf("append after replay: %v", err)
		}
		// With every job evicted, the fresh submit alone is more garbage
		// than the header that stays live, so Evict must compact.
		seg := s.seg
		if err := s.Evict(append(ids, fresh)...); err != nil {
			t.Fatalf("evicting every job: %v", err)
		}
		if s.seg == seg {
			t.Fatal("evicting every job did not compact")
		}
		s.Close()
		s, err = Open(dir, quiet)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer s.Close()
		if left := s.Jobs(); len(left) != 0 {
			t.Fatalf("compaction after evicting every job kept %d", len(left))
		}
	})
}
