package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
	"corona/internal/store"
)

// resumeScenario is a 2-config x 2-workload matrix (4 cells): enough to
// crash at several distinct write points, quick enough to run dozens of
// crash/restart cycles.
const resumeScenario = `{
	"configs": [{"preset": "XBar/OCM"}, {"fabric": "swmr", "mem": "OCM"}],
	"workloads": ["Uniform", "Hot Spot"],
	"requests": 300,
	"seed": 11
}`

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logger: discardLogger(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sortedNDJSON drains the job's results stream and returns the raw lines in
// canonical (matrix-index) order — the representation restart-resume
// equivalence is asserted in, since completion order is timing-dependent.
func sortedNDJSON(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		idx int
		raw string
	}
	var lines []line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line{m.Index, sc.Text()})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(lines, func(a, b line) int { return a.idx - b.idx })
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.raw
	}
	return out
}

// TestRestartResumeByteIdentical is the acceptance gate for the durability
// layer: a daemon killed at every journal write point in turn, at several
// worker counts, must — after a restart against the same store directory —
// finish the interrupted job with a merged result set byte-identical to an
// uninterrupted run's.
//
// The kill is simulated with the store's fault points: the injected failure
// wedges the journal (nothing is written past the crash point, including a
// torn half-frame for the "torn" point), the old server is torn down, and a
// fresh store+server pair reopens the directory exactly as a restarted
// process would.
func TestRestartResumeByteIdentical(t *testing.T) {
	// Uninterrupted reference run. Cell contents are deterministic in the
	// scenario alone, so one baseline serves every worker count.
	baseline := func() []string {
		dir := t.TempDir()
		st := openStore(t, dir)
		defer st.Close()
		s := New(Options{Store: st, Client: core.NewClient(core.WithWorkers(2)), Logger: discardLogger()})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		v, resp := postScenario(t, ts, resumeScenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("baseline submit: HTTP %d", resp.StatusCode)
		}
		waitStatus(t, ts, v.ID, statusDone)
		return sortedNDJSON(t, ts, v.ID)
	}()
	if len(baseline) != 4 {
		t.Fatalf("baseline produced %d lines, want 4", len(baseline))
	}

	// Appends for this campaign: hit 1 = submit record, hits 2-5 = the four
	// cells, hit 6 = the terminal status. Crashing at hits 2..6 leaves the
	// submission durable and the job interrupted. Hit 6 is a "before" point:
	// all four cells are durable and no status is, so the restarted daemon
	// has nothing left to simulate and must settle the job as done.
	modes := []string{"before", "torn", "sync"}
	for _, workers := range []int{1, 4} {
		for hit := 2; hit <= 6; hit++ {
			mode := modes[hit%len(modes)]
			t.Run(fmt.Sprintf("workers=%d/hit=%d/%s", workers, hit, mode), func(t *testing.T) {
				defer faultinject.Disarm()
				dir := t.TempDir()

				// First life: run the campaign into the armed journal. The
				// job completes in memory, but the store dies at the chosen
				// write point and records only the prefix.
				st := openStore(t, dir)
				s := New(Options{Store: st,
					Client: core.NewClient(core.WithWorkers(workers)), Logger: discardLogger()})
				ts := httptest.NewServer(s.Handler())
				if err := faultinject.Arm(fmt.Sprintf("store.append.%s:error@%d", mode, hit)); err != nil {
					t.Fatal(err)
				}
				v, resp := postScenario(t, ts, resumeScenario)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d", resp.StatusCode)
				}
				waitStatus(t, ts, v.ID, statusDone)
				if st.Err() == nil {
					t.Fatal("fault did not fire; the crash point was never reached")
				}
				ts.Close()
				s.Close()
				st.Close()
				faultinject.Disarm()

				// Second life: a restarted daemon on the same directory must
				// resume the job and converge on the baseline.
				st2 := openStore(t, dir)
				if jobs := st2.Jobs(); len(jobs) != 1 || jobs[0].ID != v.ID {
					t.Fatalf("replayed jobs = %+v, want exactly %s", jobs, v.ID)
				}
				if hit == 6 {
					// Any cell simulated now would fail the job.
					if err := faultinject.Arm("core.cell.run:error@1"); err != nil {
						t.Fatal(err)
					}
				}
				s2 := New(Options{Store: st2,
					Client: core.NewClient(core.WithWorkers(workers)), Logger: discardLogger()})
				ts2 := httptest.NewServer(s2.Handler())
				waitStatus(t, ts2, v.ID, statusDone)
				got := sortedNDJSON(t, ts2, v.ID)
				if !slices.Equal(got, baseline) {
					t.Fatalf("resumed results differ from the uninterrupted run:\n got %v\nwant %v", got, baseline)
				}
				ts2.Close()
				s2.Close()
				st2.Close()

				// Third life: the resumed completion itself must be durable —
				// no daemon should ever re-run this job again.
				st3 := openStore(t, dir)
				defer st3.Close()
				jobs := st3.Jobs()
				if len(jobs) != 1 || jobs[0].Status != statusDone || len(jobs[0].Cells) != 4 {
					t.Fatalf("after resume, journal holds %+v; want %s done with 4 cells", jobs, v.ID)
				}
			})
		}
	}
}

// TestGracefulShutdownLeavesJobResumable covers the planned-restart twin of
// the crash matrix: Close() interrupts a running job WITHOUT writing a
// terminal status, so the next daemon on the store resumes it rather than
// reporting a canceled husk.
func TestGracefulShutdownLeavesJobResumable(t *testing.T) {
	slow := `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Uniform"], "requests": 2000000, "seed": 1}`
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Options{Store: st, Client: core.NewClient(core.WithWorkers(1)), Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	v, resp := postScenario(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, ts, v.ID, statusRunning)
	ts.Close()
	s.Close()
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	jobs := st2.Jobs()
	if len(jobs) != 1 || jobs[0].Status != "" {
		t.Fatalf("journal after graceful shutdown = %+v; want the job interrupted (no status)", jobs)
	}
	s2 := New(Options{Store: st2, Client: core.NewClient(core.WithWorkers(1)), Logger: discardLogger()})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	got, code := getStatus(t, ts2, v.ID)
	if code != http.StatusOK {
		t.Fatalf("restored job status: HTTP %d", code)
	}
	if got.Status != statusResuming && got.Status != statusRunning {
		t.Fatalf("restored job status = %q, want resuming/running", got.Status)
	}
	// The restart's half-finished campaign is interruptible too (Close via
	// the deferred handlers); no need to wait out two million requests.
}

// TestUnparseableStoredScenarioFailsDurably plants a journal whose job
// scenario no longer parses and asserts the restarted daemon marks it failed
// — durably, so a third open does not resurrect it either — instead of
// crash-looping on it.
func TestUnparseableStoredScenarioFailsDurably(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.AppendSubmit("job-000007", []byte(`{"configs":[{"fabric":"warp"}]}`), 15, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	s2 := New(Options{Store: st2, Logger: discardLogger()})
	ts2 := httptest.NewServer(s2.Handler())
	v, code := getStatus(t, ts2, "job-000007")
	if code != http.StatusOK || v.Status != statusFailed || v.Error == "" {
		t.Fatalf("unparseable stored job = %+v (HTTP %d), want failed with detail", v, code)
	}
	// And the next submission continues the id sequence past the stored job.
	nv, resp := postScenario(t, ts2, resumeScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after restore: HTTP %d", resp.StatusCode)
	}
	if nv.ID != "job-000008" {
		t.Fatalf("next id after restored job-000007 = %q, want job-000008", nv.ID)
	}
	waitStatus(t, ts2, nv.ID, statusDone)
	ts2.Close()
	s2.Close()
	st2.Close()

	st3 := openStore(t, dir)
	defer st3.Close()
	for _, js := range st3.Jobs() {
		if js.ID == "job-000007" && js.Status != statusFailed {
			t.Fatalf("job-000007 status after restart = %q, want failed persisted", js.Status)
		}
	}
}

// errorCounter is a slog handler that counts error-level records: the
// daemon logs every refused or failed journal write at that level.
type errorCounter struct{ n *atomic.Int64 }

func (h errorCounter) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelError }
func (h errorCounter) Handle(context.Context, slog.Record) error    { h.n.Add(1); return nil }
func (h errorCounter) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h errorCounter) WithGroup(string) slog.Handler                { return h }

// TestSubmitJournaledBeforeCells runs submit-and-wait cycles against a
// small retention window, so evictions (and compactions) run alongside
// every submission, and asserts no journal append is ever an orphan: the
// daemon logs no refused write, and after a restart every journaled job
// comes back done with all of its cells.
func TestSubmitJournaledBeforeCells(t *testing.T) {
	const cycles = 150
	dir := t.TempDir()
	st := openStore(t, dir)
	var errs atomic.Int64
	s := New(Options{Store: st, RetainJobs: 8, Logger: slog.New(errorCounter{&errs}),
		Client: core.NewClient(core.WithWorkers(2))})
	ts := httptest.NewServer(s.Handler())
	for i := 0; i < cycles; i++ {
		v, resp := postScenario(t, ts, tinyScenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		waitStatus(t, ts, v.ID, statusDone)
	}
	ts.Close()
	s.Close()
	st.Close()
	if n := errs.Load(); n != 0 {
		t.Fatalf("%d journal writes refused or failed over %d cycles", n, cycles)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	jobs := st2.Jobs()
	if len(jobs) == 0 {
		t.Fatal("journal holds no jobs")
	}
	for _, js := range jobs {
		if js.Status != statusDone || len(js.Cells) != js.Total {
			t.Fatalf("job %s replayed %q with %d of %d cells", js.ID, js.Status, len(js.Cells), js.Total)
		}
	}
}
