package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
)

// fleetScenario is a 3-config x 2-workload matrix (6 cells) spanning two
// presets and the SWMR custom fabric — small enough to fleet-run in
// milliseconds, varied enough that a misrouted shard changes bytes.
const fleetScenario = `{
	"configs": [{"preset": "LMesh/ECM"}, {"preset": "XBar/OCM"}, {"fabric": "swmr", "mem": "OCM"}],
	"workloads": ["Uniform", "Hot Spot"],
	"requests": 300,
	"seed": 23
}`

// fastPeer builds a worker client with a test-speed retry envelope: real
// backoff discipline, milliseconds instead of seconds.
func fastPeer(url string) *Client {
	return NewClient(url, WithRetries(4), WithBackoff(5*time.Millisecond, 50*time.Millisecond))
}

// newFleet starts n worker daemons plus a coordinator dispatching to them,
// returning the coordinator (server and HTTP endpoint) and the workers'
// endpoints (so a test can kill one).
func newFleet(t *testing.T, n int, workerOpts, coordOpts Options) (*Server, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var workers []*httptest.Server
	var peers []*Client
	for i := 0; i < n; i++ {
		_, wts := newTestServer(t, workerOpts)
		workers = append(workers, wts)
		peers = append(peers, fastPeer(wts.URL))
	}
	coordOpts.Peers = peers
	s, ts := newTestServer(t, coordOpts)
	return s, ts, workers
}

// scrapeMetrics fetches and returns the /metrics text exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestFleetByteIdenticalAcrossShardCounts is the fleet determinism gate: the
// same campaign through coordinators of 1, 2, and 5 workers yields a merged
// NDJSON stream byte-identical (in canonical index order) to a single-node
// daemon's, for full-matrix and subset submissions alike.
func TestFleetByteIdenticalAcrossShardCounts(t *testing.T) {
	_, single := newTestServer(t, Options{})
	ref, resp := postScenario(t, single, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single-node submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, single, ref.ID, statusDone)
	want := sortedNDJSON(t, single, ref.ID)
	if len(want) != 6 {
		t.Fatalf("single-node run produced %d cells, want 6", len(want))
	}

	for _, n := range []int{1, 2, 5} {
		_, coord, _ := newFleet(t, n, Options{}, Options{})
		v, resp := postScenario(t, coord, fleetScenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%d workers: submit: HTTP %d", n, resp.StatusCode)
		}
		waitStatus(t, coord, v.ID, statusDone)
		if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
			t.Errorf("%d workers: merged NDJSON differs from the single-node run", n)
		}

		// A subset campaign shards the subset, not the matrix.
		sub, resp := postScenario(t, coord,
			strings.Replace(fleetScenario, `"requests"`, `"cells": {"list": [0, 2, 5]}, "requests"`, 1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%d workers: subset submit: HTTP %d", n, resp.StatusCode)
		}
		waitStatus(t, coord, sub.ID, statusDone)
		got := sortedNDJSON(t, coord, sub.ID)
		if len(got) != 3 || got[0] != want[0] || got[1] != want[2] || got[2] != want[5] {
			t.Errorf("%d workers: subset campaign returned %d cells or wrong bytes", n, len(got))
		}
	}
}

// TestFleetRetriesWorkerFailureMidCampaign kills one sub-job mid-shard via
// fault injection — a worker failing after delivering part of its cells —
// and requires the coordinator to re-dispatch exactly the missing cells and
// still merge a stream byte-identical to a healthy run.
func TestFleetRetriesWorkerFailureMidCampaign(t *testing.T) {
	_, single := newTestServer(t, Options{})
	ref, _ := postScenario(t, single, fleetScenario)
	waitStatus(t, single, ref.ID, statusDone)
	want := sortedNDJSON(t, single, ref.ID)

	defer faultinject.Disarm()
	// The third cell simulated anywhere in the in-process fleet errors: its
	// worker's sub-job fails with cells already streamed, the coordinator
	// must ride it out.
	if err := faultinject.Arm("core.cell.run:error@3"); err != nil {
		t.Fatal(err)
	}
	s, coord, _ := newFleet(t, 3, Options{}, Options{})
	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON after a mid-campaign worker failure differs from a healthy run")
	}
	if _, retries, _ := s.fleet.snapshot(); retries < 1 {
		t.Errorf("fleet retries = %d, want >= 1 (a sub-job did fail)", retries)
	}
}

// TestFleetCoordinatorRestartResumesMissingCells crashes a coordinator's
// journal mid-campaign and restarts a coordinator on the same store
// directory against the same workers: the resumed campaign must merge a
// stream byte-identical to a single-node run while the workers simulate
// only the cells the journal had not recorded.
func TestFleetCoordinatorRestartResumesMissingCells(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)

	defer faultinject.Disarm()
	dir := t.TempDir()
	st := openStore(t, dir)
	// Coordinator appends: hit 1 = submit, hits 2-7 = the six cells in
	// index order (the merge releases them ascending), hit 8 = the status.
	// Crashing at hit 4 leaves cells 0 and 1 durable.
	if err := faultinject.Arm("store.append.before:error@4"); err != nil {
		t.Fatal(err)
	}
	s, coord, workers := newFleet(t, 2, Options{}, Options{Store: st})
	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if st.Err() == nil {
		t.Fatal("fault did not fire; the crash point was never reached")
	}
	coord.Close()
	s.Close()
	st.Close()
	faultinject.Disarm()

	st2 := openStore(t, dir)
	if jobs := st2.Jobs(); len(jobs) != 1 || jobs[0].Status != "" || len(jobs[0].Cells) != 2 {
		t.Fatalf("replayed jobs = %+v, want %s interrupted with 2 cells", jobs, v.ID)
	}
	// Count every cell the workers simulate from here on; the trigger is
	// never reached.
	if err := faultinject.Arm("core.cell.run:error@1000000"); err != nil {
		t.Fatal(err)
	}
	var peers []*Client
	for _, w := range workers {
		peers = append(peers, fastPeer(w.URL))
	}
	s2, coord2 := newTestServer(t, Options{Store: st2, Peers: peers})
	waitStatus(t, coord2, v.ID, statusDone)
	if got := sortedNDJSON(t, coord2, v.ID); !slices.Equal(got, want) {
		t.Errorf("resumed fleet NDJSON differs from the single-node run:\n got %v\nwant %v", got, want)
	}
	if n := faultinject.Hits("core.cell.run"); n != 4 {
		t.Errorf("workers simulated %d cells after the restart, want the 4 missing ones", n)
	}
	coord2.Close()
	s2.Close()
	st2.Close()

	st3 := openStore(t, dir)
	defer st3.Close()
	if jobs := st3.Jobs(); len(jobs) != 1 || jobs[0].Status != statusDone || len(jobs[0].Cells) != 6 {
		t.Fatalf("after resume, journal holds %+v; want %s done with 6 cells", jobs, v.ID)
	}
}

// TestFleetRetriesDeadWorker kills a worker daemon outright (its listener is
// gone before the campaign starts): the coordinator's dispatch to it fails
// at the transport and the shard must land on the surviving worker, output
// unchanged.
func TestFleetRetriesDeadWorker(t *testing.T) {
	_, single := newTestServer(t, Options{})
	ref, _ := postScenario(t, single, fleetScenario)
	waitStatus(t, single, ref.ID, statusDone)
	want := sortedNDJSON(t, single, ref.ID)

	s, coord, workers := newFleet(t, 2, Options{}, Options{})
	workers[0].Close()
	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON with a dead worker differs from a healthy run")
	}
	if _, retries, _ := s.fleet.snapshot(); retries < 1 {
		t.Errorf("fleet retries = %d, want >= 1 (half the fleet was dead)", retries)
	}

	// The dead worker's shard is visible in the per-worker dispatch counts:
	// both workers were tried, only one could serve.
	mx := scrapeMetrics(t, coord)
	for _, w := range s.workers {
		if !strings.Contains(mx, fmt.Sprintf("corona_fleet_shards_dispatched_total{worker=%q}", w.name)) {
			t.Errorf("/metrics misses dispatch counter for worker %s", w.name)
		}
	}
}

// TestFleetWhollyDownFailsThroughBudget closes every worker's listener
// before the campaign starts: dispatch must keep going to dead workers, so
// the campaign lands "failed" with the dispatch-budget error within a
// bounded time instead of hanging on a fleet that has no one to serve it.
func TestFleetWhollyDownFailsThroughBudget(t *testing.T) {
	_, coord, workers := newFleet(t, 2, Options{}, Options{})
	for _, w := range workers {
		w.Close()
	}
	start := time.Now()
	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	got := waitStatus(t, coord, v.ID, statusFailed)
	if !strings.Contains(got.Error, "undone after") || !strings.Contains(got.Error, "dispatches") {
		t.Errorf("wholly-down campaign failed with %q, want the dispatch-budget error", got.Error)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("wholly-down campaign took %v to fail, want a bounded failure", took)
	}
}

// TestMetricsEndpoint pins the Prometheus exposition on both node kinds: a
// worker exports job/queue/cell/store gauges, a coordinator additionally
// exports fleet size and dispatch counters, and scrapes parse as the text
// format (every non-comment line is "name{labels} value").
func TestMetricsEndpoint(t *testing.T) {
	s, coord, workers := newFleet(t, 2, Options{}, Options{})
	v, _ := postScenario(t, coord, fleetScenario)
	waitStatus(t, coord, v.ID, statusDone)

	mx := scrapeMetrics(t, coord)
	for _, want := range []string{
		`corona_jobs{status="done"} 1`,
		`corona_jobs{status="running"} 0`,
		"corona_queue_depth 0",
		"corona_queue_capacity 16",
		"corona_cells_completed_total 6",
		"corona_uptime_seconds",
		"corona_fleet_workers 2",
		"corona_fleet_shard_retries_total 0",
	} {
		if !strings.Contains(mx, want) {
			t.Errorf("coordinator /metrics misses %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(mx), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}

	// Workers scraped the same way report no fleet series and their own
	// share of the cells.
	wmx := scrapeMetrics(t, workers[0])
	if strings.Contains(wmx, "corona_fleet_workers") {
		t.Error("plain worker exports fleet metrics")
	}
	if !strings.Contains(wmx, "corona_cells_completed_total") {
		t.Error("worker /metrics misses corona_cells_completed_total")
	}

	// The store gauge appears only when a store is configured.
	if strings.Contains(mx, "corona_store_healthy") {
		t.Error("storeless daemon exports corona_store_healthy")
	}
	st := openStore(t, t.TempDir())
	defer st.Close()
	_, sts := newTestServer(t, Options{Store: st})
	if !strings.Contains(scrapeMetrics(t, sts), "corona_store_healthy 1") {
		t.Error("stored daemon misses corona_store_healthy 1")
	}
	_ = s
}

// TestSplitShards pins the contiguous near-equal chunking, including more
// workers than cells.
func TestSplitShards(t *testing.T) {
	for _, tc := range []struct {
		cells, n int
		want     [][]int
	}{
		{6, 2, [][]int{{0, 1, 2}, {3, 4, 5}}},
		{6, 5, [][]int{{0}, {1}, {2}, {3}, {4, 5}}},
		{2, 4, [][]int{{0}, {1}}},
		{5, 3, [][]int{{0}, {1, 2}, {3, 4}}},
	} {
		in := make([]int, tc.cells)
		for i := range in {
			in[i] = i
		}
		got := splitShards(in, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("splitShards(%d, %d) = %v", tc.cells, tc.n, got)
		}
		for k := range got {
			if !slices.Equal(got[k], tc.want[k]) {
				t.Errorf("splitShards(%d, %d)[%d] = %v, want %v", tc.cells, tc.n, k, got[k], tc.want[k])
			}
		}
	}
}

// TestFleetStragglerMedian pins the straggler rule's median: it spans the
// first-hand leases that are open or whose cells are all merged, so failed
// leases (0 cells/s, their cells re-leased) cannot drag it to zero, and a
// lease with a copy in flight is not copied again.
func TestFleetStragglerMedian(t *testing.T) {
	now := time.Unix(1000, 0)
	q := &cellQueue{s: &Server{tuning: FleetTuning{SpeculationAfter: time.Second}}}
	at := func(secsAgo float64) time.Time {
		return now.Add(-time.Duration(secsAgo * float64(time.Second)))
	}
	fast := &lease{cells: []int{0, 1, 2, 3}, done: []bool{true, true, true, true}, got: 4,
		started: at(2), ended: at(1)} // 4 cells/s
	q.leases = append(q.leases, fast)
	for c := 4; c < 7; c++ {
		q.leases = append(q.leases, &lease{cells: []int{c}, done: []bool{false},
			started: at(3), ended: at(2.9)}) // failed: 0 cells/s
	}
	slow := &lease{cells: []int{7, 8, 9, 10}, done: []bool{true, false, false, false}, got: 1,
		started: at(10)} // open, 0.1 cells/s
	q.leases = append(q.leases, slow)
	if got := q.straggler(now); got != slow {
		t.Fatalf("straggler = %+v, want the 0.1 cells/s lease (median over it and the 4 cells/s one)", got)
	}
	slow.copied = true
	if got := q.straggler(now); got != nil {
		t.Errorf("straggler = %+v with its copy in flight, want nil", got)
	}
}

// TestCellSelector pins the wire form: contiguous runs compress to a range,
// gapped retries fall back to the explicit list.
func TestCellSelector(t *testing.T) {
	if sel := cellSelector([]int{3, 4, 5}); sel.Lo == nil || *sel.Lo != 3 || *sel.Hi != 6 || sel.List != nil {
		t.Errorf("contiguous selector = %+v", sel)
	}
	if sel := cellSelector([]int{1, 3, 4}); sel.Lo != nil || !slices.Equal(sel.List, []int{1, 3, 4}) {
		t.Errorf("gapped selector = %+v", sel)
	}
}

// FuzzCellSelector fuzzes the "cells" submission selector: for any body,
// parseExtras either errors or returns in-range, duplicate-free indices,
// and every accepted subset survives the coordinator's wire round trip —
// the selector cellSelector builds from it resolves to the same indices.
func FuzzCellSelector(f *testing.F) {
	for _, body := range []string{
		fleetScenario,
		strings.Replace(fleetScenario, `"requests"`, `"cells": {"list": [0, 2, 5]}, "requests"`, 1),
		`{"cells": {"lo": 0, "hi": 3}}`,
		`{"cells": {"lo": 3, "hi": 6}, "timeout": "10m"}`,
		`{"cells": {"list": [5, 1, 3]}}`,
		`{"cells": {"list": [6]}}`,
		`{"cells": {"list": [1, 1]}}`,
		`{"cells": {"list": []}}`,
		`{"cells": {"list": [0.5]}}`,
		`{"cells": {"lo": 3, "hi": 1}}`,
		`{"cells": {"lo": -1, "hi": 2}}`,
		`{"cells": {"lo": 0, "hi": 7}}`,
		`{"cells": {"lo": 0}}`,
		`{"cells": {"lo": 0, "hi": 2, "list": [1]}}`,
		`{"cells": 5}`,
		`{"cells": null, "timeout": "-1s"}`,
		`not json`,
	} {
		f.Add([]byte(body), uint16(6))
	}
	f.Fuzz(func(t *testing.T, body []byte, total uint16) {
		_, subset, err := parseExtras(body, int(total))
		if err != nil || subset == nil {
			return
		}
		seen := make(map[int]bool, len(subset))
		for _, i := range subset {
			if i < 0 || i >= int(total) || seen[i] {
				t.Fatalf("parseExtras accepted index %d (out of range or duplicated) from %q for %d cells",
					i, body, total)
			}
			seen[i] = true
		}
		sorted := slices.Clone(subset)
		slices.Sort(sorted)
		back, err := cellSelector(sorted).resolve(int(total))
		if err != nil || !slices.Equal(back, sorted) {
			t.Fatalf("selector round trip of %v = %v, %v", sorted, back, err)
		}
	})
}

// TestFleetSpeedup is the scaling acceptance gate: the paper-shaped
// 6-configuration x 15-workload campaign through a 4-worker fleet (each
// worker single-threaded) must run at least twice as fast as through a
// 1-worker fleet at the same per-node parallelism, with byte-identical
// merged output. The byte-identity half runs everywhere; the wall-clock
// half needs real cores — an in-process fleet on a 1-CPU box time-slices
// one core and measures the scheduler, not the sharding.
func TestFleetSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaling measurement")
	}
	scenario := `{
		"configs": [{"preset": "LMesh/ECM"}, {"preset": "HMesh/ECM"}, {"preset": "LMesh/OCM"},
		            {"preset": "HMesh/OCM"}, {"preset": "XBar/OCM"}, {"fabric": "swmr", "mem": "OCM"}],
		"requests": 1500,
		"seed": 29
	}`
	serial := Options{Client: core.NewClient(core.WithWorkers(1))}

	run := func(n int) ([]string, time.Duration) {
		_, coord, _ := newFleet(t, n, serial, Options{})
		start := time.Now()
		v, resp := postScenario(t, coord, scenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%d workers: submit: HTTP %d", n, resp.StatusCode)
		}
		waitStatus(t, coord, v.ID, statusDone)
		return sortedNDJSON(t, coord, v.ID), time.Since(start)
	}

	one, tOne := run(1)
	four, tFour := run(4)
	if len(one) != 90 {
		t.Fatalf("campaign produced %d cells, want 90", len(one))
	}
	if !slices.Equal(one, four) {
		t.Error("4-worker merged NDJSON differs from 1-worker")
	}
	speedup := tOne.Seconds() / tFour.Seconds()
	t.Logf("1 worker %v, 4 workers %v: %.2fx on %d CPUs", tOne, tFour, speedup, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling assertion needs >= 4 CPUs, have %d (byte-identity verified above)", runtime.NumCPU())
	}
	if speedup < 2 {
		t.Errorf("fleet speedup = %.2fx, want >= 2x", speedup)
	}
}
