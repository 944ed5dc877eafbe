package store

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"corona/internal/faultinject"
)

// scriptedAppends drives a fixed sequence of appends against s, stopping at
// the first error, and returns how many succeeded. The sequence is one
// submit, n-2 cells, and a terminal status — the exact write pattern of one
// served job.
func scriptedAppends(s *Store, n int) (ok int, err error) {
	if err = s.AppendSubmit("job-000001", testScenario, n-2, time.Now().UTC(), 0); err != nil {
		return 0, err
	}
	ok++
	for i := 0; i < n-2; i++ {
		if err = s.AppendCell("job-000001", cell(i, uint64(100*i+1))); err != nil {
			return ok, err
		}
		ok++
	}
	if err = s.AppendStatus("job-000001", "done", ""); err != nil {
		return ok, err
	}
	return ok + 1, nil
}

// durableAfterCrash is what each fault point promises survives the crash:
// the failing append itself is durable only for the post-write "sync"
// point, where the frame hit the file before the simulated death.
func durableAfterCrash(point string, completed int) int {
	if point == "store.append.sync" {
		return completed + 1
	}
	return completed
}

// TestChaosCrashAtEveryWritePoint kills the store (via fault injection) at
// every append ordinal of a job's write sequence, for every fault point —
// before any bytes, mid-frame (a torn half-frame reaches disk), and after
// the write — then reopens the directory and asserts the journal replays to
// exactly the durable prefix, the store stayed wedged after the hit, and
// the reopened journal accepts further appends cleanly.
func TestChaosCrashAtEveryWritePoint(t *testing.T) {
	const appends = 6 // submit + 4 cells + status
	points := []string{"store.append.before", "store.append.torn", "store.append.sync"}
	// The header frame of a fresh segment is written by Open, after arming
	// would normally happen; open the store BEFORE arming so hit 1 is the
	// first scripted append, not the header.
	for _, point := range points {
		for hit := 1; hit <= appends; hit++ {
			t.Run(fmt.Sprintf("%s@%d", point, hit), func(t *testing.T) {
				defer faultinject.Disarm()
				dir := t.TempDir()
				s, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := faultinject.Arm(fmt.Sprintf("%s:error@%d", point, hit)); err != nil {
					t.Fatal(err)
				}
				ok, err := scriptedAppends(s, appends)
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("appends completed %d, err = %v, want injected fault", ok, err)
				}
				if ok != hit-1 {
					t.Fatalf("completed %d appends before the fault, want %d", ok, hit-1)
				}
				// The wedge must latch: nothing written after the crash point.
				if err := s.AppendStatus("job-000001", "done", ""); !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("append after wedge = %v, want the latched fault", err)
				}
				if s.Err() == nil {
					t.Fatal("Err() nil on a wedged store")
				}
				s.Close()
				faultinject.Disarm()

				s2, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen after crash at %s hit %d: %v", point, hit, err)
				}
				defer s2.Close()
				want := durableAfterCrash(point, ok)
				jobs := s2.Jobs()
				got := 0
				if len(jobs) > 0 {
					got = 1 + len(jobs[0].Cells)
					if jobs[0].Status != "" {
						got++
					}
				}
				if got != want {
					t.Fatalf("replayed %d records, want %d (crash at %s hit %d)", got, want, point, hit)
				}
				// Recovery must leave a journal that keeps working.
				id := "job-000002"
				if err := s2.AppendSubmit(id, testScenario, 1, time.Now().UTC(), 0); err != nil {
					t.Fatal(err)
				}
				s2.Close()
				s3, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer s3.Close()
				found := false
				for _, j := range s3.Jobs() {
					found = found || j.ID == id
				}
				if !found {
					t.Fatal("append after recovery did not survive a further reopen")
				}
			})
		}
	}
}

// TestChaosCrashDuringCompaction kills the store between writing the
// compacted temp segment and renaming it into place: the old segment must
// stay authoritative and the temp debris must be swept at reopen.
func TestChaosCrashDuringCompaction(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		s.AppendSubmit(id, testScenario, 1, time.Now().UTC(), 0)
		s.AppendStatus(id, "done", "")
	}
	if err := faultinject.Arm("store.compact.rename:error@1"); err != nil {
		t.Fatal(err)
	}
	// Evicting both jobs leaves only garbage, so Evict compacts.
	if err := s.Evict("job-000001", "job-000002"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Evict = %v, want injected compaction fault", err)
	}
	s.Close()
	faultinject.Disarm()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs := s2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("crashed compaction lost jobs: %+v", jobs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "journal-000001.wal" {
			t.Errorf("debris left after recovery: %s", name)
		}
	}
}

// TestChaosProbabilisticAppendStorm drives many journals under a seeded
// probabilistic fault and asserts the invariant that matters: whatever
// subset of appends survived, reopening always yields a consistent prefix
// (cells contiguous with what was acknowledged, never a record after the
// wedge). Deterministic seeds make a failure reproducible.
func TestChaosProbabilisticAppendStorm(t *testing.T) {
	rounds := 8
	if os.Getenv("CORONA_CHAOS") != "" {
		rounds = 64
	}
	for seed := 1; seed <= rounds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer faultinject.Disarm()
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Rotate through the three points, one armed per round.
			point := []string{"store.append.before", "store.append.torn", "store.append.sync"}[seed%3]
			if err := faultinject.Arm(fmt.Sprintf("%s:error:p=0.2:seed=%d", point, seed)); err != nil {
				t.Fatal(err)
			}
			ok, err := scriptedAppends(s, 10)
			s.Close()
			faultinject.Disarm()
			if err == nil {
				ok = 10 // the fault never fired this round
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			jobs := s2.Jobs()
			floor := ok // every acknowledged append must have survived
			if len(jobs) == 0 {
				if floor != 0 {
					t.Fatalf("acknowledged %d appends but replay found no job", floor)
				}
				return
			}
			got := 1 + len(jobs[0].Cells)
			if jobs[0].Status != "" {
				got++
			}
			if got < floor || got > floor+1 {
				t.Fatalf("replayed %d records with %d acknowledged (crash point %s)", got, floor, point)
			}
		})
	}
}
