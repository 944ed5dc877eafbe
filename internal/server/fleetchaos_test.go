package server

// The fleet-chaos suite: drives coordinator↔worker links through the
// network-layer faults (partition, latency, drip, reset — see
// faultinject.ChaosProxy) and the availability layer through its state
// machines, always pinning the same oracle: the merged NDJSON stream stays
// byte-identical to an uninterrupted single-node run and no cell is ever
// emitted twice. CI runs it under -race with CORONA_CHAOS=1, which widens
// the probabilistic storms (see .github/workflows/ci.yml).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
)

// chaosFleet starts n workers — those listed in proxied reached through a
// ChaosProxy — plus a coordinator with the given tuning, all torn down with
// the test.
func chaosFleet(t *testing.T, n int, proxied []int, popts faultinject.ProxyOptions,
	tuning FleetTuning) (*Server, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var workers []*httptest.Server
	var peers []*Client
	for i := 0; i < n; i++ {
		_, wts := newTestServer(t, Options{})
		workers = append(workers, wts)
		url := wts.URL
		if slices.Contains(proxied, i) {
			p, err := faultinject.NewProxy(strings.TrimPrefix(wts.URL, "http://"), popts)
			if err != nil {
				t.Fatalf("chaos proxy: %v", err)
			}
			t.Cleanup(p.Close)
			url = p.URL()
		}
		peers = append(peers, fastPeer(url))
	}
	s, ts := newTestServer(t, Options{Peers: peers, Tuning: tuning})
	return s, ts, workers
}

// singleNodeReference runs the scenario on a plain daemon and returns its
// canonical (index-sorted) NDJSON lines.
func singleNodeReference(t *testing.T, scenario string) []string {
	t.Helper()
	_, single := newTestServer(t, Options{})
	ref, resp := postScenario(t, single, scenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single-node submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, single, ref.ID, statusDone)
	return sortedNDJSON(t, single, ref.ID)
}

// coordHealth fetches a coordinator's /healthz and returns the decoded view.
func coordHealth(t *testing.T, ts *httptest.Server) HealthView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var v HealthView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return v
}

// waitWorkerState polls /healthz until the named worker reaches one of the
// wanted states.
func waitWorkerState(t *testing.T, ts *httptest.Server, worker string, want ...string) WorkerHealth {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, w := range coordHealth(t, ts).Workers {
			if w.Name == worker && slices.Contains(want, w.State) {
				return w
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never reached %v; healthz: %+v",
				worker, want, coordHealth(t, ts).Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetMergeDuplicateCellDelivery pins first-result-wins inside
// fleetMerge: the same index delivered twice — the speculation race — emits
// exactly once, keeping the first arrival's bytes, at any interleaving,
// including a concurrent storm of racing deliverers.
func TestFleetMergeDuplicateCellDelivery(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	cell := func(i int, from string) core.CellResult {
		return core.CellResult{Index: i, Workload: from}
	}
	newMerge := func(order []int) (*fleetMerge, *job) {
		j := &job{id: "job-merge"}
		j.cond = sync.NewCond(&j.mu)
		return &fleetMerge{s: s, j: j, order: order,
			pend: make(map[int]core.CellResult), seen: make(map[int]bool)}, j
	}

	// Several adversarial interleavings: duplicate before release, duplicate
	// after release, duplicate of a parked out-of-order cell.
	for _, deliveries := range [][]core.CellResult{
		{cell(0, "primary"), cell(0, "spec"), cell(1, "primary"), cell(2, "primary"), cell(2, "spec")},
		{cell(2, "primary"), cell(2, "spec"), cell(0, "primary"), cell(1, "spec"), cell(1, "primary")},
		{cell(1, "spec"), cell(0, "spec"), cell(0, "primary"), cell(1, "primary"), cell(2, "primary")},
	} {
		m, j := newMerge([]int{0, 1, 2})
		first := make(map[int]string)
		for _, c := range deliveries {
			accepted := m.add(c)
			_, dup := first[c.Index]
			if dup && accepted {
				t.Fatalf("duplicate index %d (from %s) was accepted", c.Index, c.Workload)
			}
			if !dup && !accepted {
				t.Fatalf("first delivery of index %d (from %s) was rejected", c.Index, c.Workload)
			}
			if !dup {
				first[c.Index] = c.Workload
			}
		}
		if len(j.cells) != 3 {
			t.Fatalf("merge released %d cells, want 3", len(j.cells))
		}
		for i, c := range j.cells {
			if c.Index != i {
				t.Errorf("release order broken: position %d holds index %d", i, c.Index)
			}
			if c.Workload != first[c.Index] {
				t.Errorf("index %d kept %q, want the first arrival %q", c.Index, c.Workload, first[c.Index])
			}
		}
	}

	// Concurrent storm: many racing deliverers, every index still exactly
	// once, ascending. (Which racer wins is scheduling; that exactly one
	// does, and that bytes stay identical either way, is the invariant —
	// deterministic seeding makes racing payloads equal in production.)
	const racers, cells = 8, 50
	order := make([]int, cells)
	for i := range order {
		order[i] = i
	}
	m, j := newMerge(order)
	var wg sync.WaitGroup
	accepts := make([]int, racers)
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				if m.add(cell(i, fmt.Sprintf("racer-%d", r))) {
					accepts[r]++
				}
			}
		}(r)
	}
	wg.Wait()
	total := 0
	for _, n := range accepts {
		total += n
	}
	if total != cells {
		t.Errorf("%d deliveries accepted across racers, want exactly %d", total, cells)
	}
	if len(j.cells) != cells {
		t.Fatalf("storm released %d cells, want %d", len(j.cells), cells)
	}
	for i, c := range j.cells {
		if c.Index != i {
			t.Errorf("storm broke release order at position %d: index %d", i, c.Index)
		}
	}
}

// TestShardBodyTimeoutPropagation pins deadline propagation: a campaign's
// remaining budget rides the sub-job body, replacing the submitted timeout;
// a deadline-free campaign strips the field entirely.
func TestShardBodyTimeoutPropagation(t *testing.T) {
	raw := json.RawMessage(`{"configs": [{"preset": "XBar/OCM"}], "timeout": "10m", "seed": 1}`)
	decode := func(b []byte) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("sub-job body does not parse: %v", err)
		}
		return m
	}

	b, err := shardBody(raw, []int{0}, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var timeout string
	if err := json.Unmarshal(decode(b)["timeout"], &timeout); err != nil {
		t.Fatalf("timeout field: %v", err)
	}
	if timeout != "1.5s" {
		t.Errorf("propagated timeout = %q, want the remaining budget \"1.5s\", not the submitted 10m", timeout)
	}

	b, err = shardBody(raw, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decode(b)["timeout"]; ok {
		t.Error("deadline-free campaign's sub-job still carries a timeout")
	}
}

// TestCoordinatorShedsWithRetryAfterWhenSaturated is the overload-control
// gate and the Retry-After regression test: with every live worker's queue
// full, the coordinator refuses new campaigns with 503 + a Retry-After
// header, and admits again once the fleet drains.
func TestCoordinatorShedsWithRetryAfterWhenSaturated(t *testing.T) {
	slow := `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Uniform"], "requests": 2000000, "seed": 1}`
	var workerTS []*httptest.Server
	var peers []*Client
	for i := 0; i < 2; i++ {
		_, wts := newTestServer(t, Options{QueueDepth: 1,
			Client: core.NewClient(core.WithWorkers(1))})
		workerTS = append(workerTS, wts)
		peers = append(peers, fastPeer(wts.URL))
	}
	_, coord := newTestServer(t, Options{Peers: peers,
		Tuning: FleetTuning{HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout: 2 * time.Second}})

	// Saturate both workers directly: one slow job running, one filling the
	// single queue slot.
	var running, queued []JobView
	for _, wts := range workerTS {
		r, resp := postScenario(t, wts, slow)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("saturating submit: HTTP %d", resp.StatusCode)
		}
		waitStatus(t, wts, r.ID, statusRunning)
		q, resp := postScenario(t, wts, slow)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue-filling submit: HTTP %d", resp.StatusCode)
		}
		running, queued = append(running, r), append(queued, q)
	}
	// Wait until heartbeats have reported the saturation to the coordinator.
	deadline := time.Now().Add(15 * time.Second)
	for {
		full := 0
		for _, w := range coordHealth(t, coord).Workers {
			if w.QueueCapacity > 0 && w.QueueDepth >= w.QueueCapacity {
				full++
			}
		}
		if full == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeats never reported saturation: %+v", coordHealth(t, coord).Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(coord.URL+"/v1/jobs", "application/json", strings.NewReader(fleetScenario))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated coordinator answered HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("coordinator 503 lacks the Retry-After header")
	} else if secs, err := time.ParseDuration(ra + "s"); err != nil || secs < time.Second {
		t.Errorf("coordinator Retry-After = %q, want a positive seconds count", ra)
	}

	// Drain the fleet and the coordinator must admit again — recovery, not
	// just refusal.
	for i, wts := range workerTS {
		for _, v := range []JobView{running[i], queued[i]} {
			req, _ := http.NewRequest(http.MethodDelete, wts.URL+"/v1/jobs/"+v.ID, nil)
			if dresp, err := http.DefaultClient.Do(req); err == nil {
				dresp.Body.Close()
			}
		}
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		v, resp := postScenario(t, coord, fleetScenario)
		if resp.StatusCode == http.StatusAccepted {
			waitStatus(t, coord, v.ID, statusDone)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained coordinator still sheds: HTTP %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerHealthLifecycle drives the full heartbeat state machine over a
// real partition: healthy → suspect → dead while the link refuses
// connections, dead workers visible in /healthz and /metrics, then
// recovered → healthy when the partition heals — and a campaign submitted
// against the healed fleet still merges byte-identical.
func TestWorkerHealthLifecycle(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)
	defer faultinject.Disarm()
	s, coord, _ := chaosFleet(t, 2, []int{0}, faultinject.ProxyOptions{}, FleetTuning{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		DeadAfter:         3,
	})
	proxiedName := s.workers[0].name

	if err := faultinject.Arm("faultinject.proxy.accept:error:p=1:seed=1"); err != nil {
		t.Fatal(err)
	}
	dead := waitWorkerState(t, coord, proxiedName, workerDead)
	if dead.State != workerDead {
		t.Fatalf("partitioned worker state = %s, want dead", dead.State)
	}
	mx := scrapeMetrics(t, coord)
	if !strings.Contains(mx, fmt.Sprintf("corona_fleet_worker_healthy{worker=%q} 0", proxiedName)) {
		t.Error("/metrics does not report the dead worker as unhealthy")
	}
	if !strings.Contains(mx, fmt.Sprintf("corona_fleet_worker_healthy{worker=%q} 1", s.workers[1].name)) {
		t.Error("/metrics does not report the surviving worker as healthy")
	}

	// Heal the partition: the worker must rejoin on its own.
	faultinject.Disarm()
	waitWorkerState(t, coord, proxiedName, workerRecovered, workerHealthy)
	waitWorkerState(t, coord, proxiedName, workerHealthy)

	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-heal submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON after partition-and-heal differs from a single-node run")
	}
}

// TestFleetFailingWorkerLeavesDispatch is the breaker integration gate: a
// worker that answers /healthz but fails every POST /v1/jobs with a 5xx
// leaves dispatch through its own failures (visible as dead with breaker
// "open" in /healthz and /metrics) while the campaign merges byte-identical
// on its peer. Once the worker is fixed, its next live heartbeat returns it
// to dispatch and it serves a later campaign. Heartbeats are effectively
// disabled so dispatch failures, not probes, are what take it out.
func TestFleetFailingWorkerLeavesDispatch(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)
	_, backend := newTestServer(t, Options{})
	var broken atomic.Bool
	var served atomic.Int64
	broken.Store(true)
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			if broken.Load() {
				writeError(w, http.StatusInternalServerError, "sub-jobs broken on purpose")
				return
			}
			served.Add(1)
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(failing.Close)
	_, peer := newTestServer(t, Options{})
	s, coord := newTestServer(t, Options{
		Peers:  []*Client{fastPeer(failing.URL), fastPeer(peer.URL)},
		Tuning: FleetTuning{HeartbeatInterval: time.Hour, DeadAfter: 1},
	})
	failingName := s.workers[0].name

	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON with a failing worker differs from a single-node run")
	}
	for _, w := range coordHealth(t, coord).Workers {
		if w.Name == failingName && (w.State != workerDead || w.Breaker != "open") {
			t.Fatalf("failing worker = %s / breaker %q, want dead / open", w.State, w.Breaker)
		}
	}
	if !strings.Contains(scrapeMetrics(t, coord),
		fmt.Sprintf("corona_fleet_breaker_open{worker=%q} 1", failingName)) {
		t.Error("/metrics does not report the failing worker out of dispatch")
	}

	// Fixed, and one live heartbeat later back in dispatch.
	broken.Store(false)
	s.heartbeat(s.workers[0])
	if h := waitWorkerState(t, coord, failingName, workerRecovered); h.Breaker != "closed" {
		t.Fatalf("recovered worker breaker = %q, want closed", h.Breaker)
	}
	v2, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-fix submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v2.ID, statusDone)
	if got := sortedNDJSON(t, coord, v2.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON after the worker was fixed differs from a single-node run")
	}
	if served.Load() == 0 {
		t.Error("fixed worker served no sub-job of the later campaign")
	}
}

// TestFleetFailedCellsRetryOnAnotherWorker runs a worker that fails every
// POST /v1/jobs with a 500 beside a peer whose result streams start late,
// under the default tuning. A heartbeat can clear the failing worker's
// missed beats between its failures, so health alone does not keep it from
// its own returned cells: the retry must wait for the peer instead of
// spending the cells' dispatch budget on the worker that just failed them.
func TestFleetFailedCellsRetryOnAnotherWorker(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)
	_, backend := newTestServer(t, Options{})
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			writeError(w, http.StatusInternalServerError, "sub-jobs broken on purpose")
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(failing.Close)
	_, peerBackend := newTestServer(t, Options{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/results") {
			select {
			case <-time.After(1500 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		peerBackend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	_, coord := newTestServer(t, Options{Peers: []*Client{fastPeer(failing.URL), fastPeer(slow.URL)}})

	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON with a failing worker and a slow peer differs from a single-node run")
	}
}

// TestFleetSpeculatesAgainAfterFailedCopy stalls one worker's result stream
// outright and fails the first speculative copy of its lease. The lease must
// be copied again, and the second copy must finish the campaign
// byte-identical.
func TestFleetSpeculatesAgainAfterFailedCopy(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)
	_, stallBackend := newTestServer(t, Options{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/results") {
			<-r.Context().Done()
			return
		}
		stallBackend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(stalled.Close)
	_, backend := newTestServer(t, Options{})
	var submits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Submit 1 is the worker's first lease; submit 2 is the first copy.
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && submits.Add(1) == 2 {
			writeError(w, http.StatusInternalServerError, "first copy broken on purpose")
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	s, coord := newTestServer(t, Options{
		Peers: []*Client{fastPeer(stalled.URL), fastPeer(flaky.URL)},
		Tuning: FleetTuning{
			HeartbeatInterval: 50 * time.Millisecond,
			SpeculationAfter:  100 * time.Millisecond,
		},
	})

	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON after a failed speculative copy differs from a single-node run")
	}
	if _, _, specs := s.fleet.snapshot(); specs < 2 {
		t.Errorf("speculations = %d, want >= 2 (the first copy failed)", specs)
	}
}

// TestFleetSpeculatesBesideFailedPeer stalls one worker's result stream
// while it keeps answering heartbeats, and fails the other worker's first
// lease. The failed lease leaves the median, so the stalled lease's zero
// rate is the only one left; the idle worker must still copy it rather
// than wait for the campaign's deadline.
func TestFleetSpeculatesBesideFailedPeer(t *testing.T) {
	scenario := strings.Replace(fleetScenario, `"seed": 23`, `"seed": 23, "timeout": "10s"`, 1)
	want := singleNodeReference(t, scenario)
	_, stallBackend := newTestServer(t, Options{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/results") {
			<-r.Context().Done()
			return
		}
		stallBackend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(stalled.Close)
	_, backend := newTestServer(t, Options{})
	var submits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && submits.Add(1) == 1 {
			writeError(w, http.StatusInternalServerError, "first lease broken on purpose")
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	_, coord := newTestServer(t, Options{
		Peers:  []*Client{fastPeer(stalled.URL), fastPeer(flaky.URL)},
		Tuning: FleetTuning{SpeculationAfter: 100 * time.Millisecond},
	})

	v, resp := postScenario(t, coord, scenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	if got := sortedNDJSON(t, coord, v.ID); !slices.Equal(got, want) {
		t.Error("merged NDJSON with a stalled lease beside a failed one differs from a single-node run")
	}
}

// TestFleetPartitionMidShard cuts a worker's link mid-stream — cells already
// delivered — and requires the coordinator to re-dispatch only the missing
// remainder, merged output byte-identical, no duplicates. With CORONA_CHAOS
// set, a seeded probabilistic reset storm widens the coverage.
func TestFleetPartitionMidShard(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)
	run := func(t *testing.T, spec string) {
		defer faultinject.Disarm()
		_, coord, _ := chaosFleet(t, 3, []int{0}, faultinject.ProxyOptions{}, FleetTuning{
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
		})
		if err := faultinject.Arm(spec); err != nil {
			t.Fatal(err)
		}
		v, resp := postScenario(t, coord, fleetScenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		waitStatus(t, coord, v.ID, statusDone)
		got := sortedNDJSON(t, coord, v.ID)
		if len(got) != len(want) {
			t.Fatalf("merged stream has %d cells, want %d (duplicate or lost cells)", len(got), len(want))
		}
		if !slices.Equal(got, want) {
			t.Error("merged NDJSON through a resetting link differs from a single-node run")
		}
	}

	// Deterministic one-shot: the 5th relayed chunk resets the connection.
	t.Run("reset@5", func(t *testing.T) { run(t, "faultinject.proxy.chunk:error@5") })
	if os.Getenv("CORONA_CHAOS") == "" {
		return
	}
	// Chaos storm: every chunk through the proxied link resets with seeded
	// probability; panics contained as resets ride along.
	for seed := 1; seed <= 6; seed++ {
		mode := "error"
		if seed%3 == 0 {
			mode = "panic"
		}
		t.Run(fmt.Sprintf("storm/seed=%d", seed), func(t *testing.T) {
			run(t, fmt.Sprintf("faultinject.proxy.chunk:%s:p=0.05:seed=%d", mode, seed))
		})
	}
}

// TestFleetStragglerSpeculation slows one worker's link to a drip and
// requires the speculation monitor to notice the straggling shard, re-issue
// its undelivered cells to a healthy peer, and finish the campaign with the
// merged stream byte-identical — the duplicate-delivery race resolved by
// first-result-wins.
func TestFleetStragglerSpeculation(t *testing.T) {
	want := singleNodeReference(t, fleetScenario)
	defer faultinject.Disarm()
	s, coord, _ := chaosFleet(t, 3, []int{0},
		faultinject.ProxyOptions{DripBytes: 64, DripEvery: 25 * time.Millisecond},
		FleetTuning{
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  time.Second,
			SpeculationAfter:  100 * time.Millisecond,
		})
	if err := faultinject.Arm("faultinject.proxy.drip:error:p=1:seed=1"); err != nil {
		t.Fatal(err)
	}
	v, resp := postScenario(t, coord, fleetScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, coord, v.ID, statusDone)
	got := sortedNDJSON(t, coord, v.ID)
	if len(got) != len(want) {
		t.Fatalf("merged stream has %d cells, want %d (the speculation race duplicated or lost cells)",
			len(got), len(want))
	}
	if !slices.Equal(got, want) {
		t.Error("merged NDJSON with a speculated straggler differs from a single-node run")
	}
	if _, _, specs := s.fleet.snapshot(); specs < 1 {
		t.Errorf("speculations = %d, want >= 1 (one worker was dripping at ~2.5 KB/s)", specs)
	}
	if !strings.Contains(scrapeMetrics(t, coord), "corona_fleet_speculations_total") {
		t.Error("/metrics misses corona_fleet_speculations_total")
	}
}

// TestFleetMergeConcurrentShardsAscending delivers two shards' cells from
// two goroutines at once, interleaved index by index so both keep releasing
// batches, and asserts the job's stream comes out strictly ascending: a
// batch released by one deliverer must land before the next one's.
func TestFleetMergeConcurrentShardsAscending(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	const cells, rounds = 64, 200
	order := make([]int, cells)
	for i := range order {
		order[i] = i
	}
	for r := 0; r < rounds; r++ {
		j := &job{id: "job-merge"}
		j.cond = sync.NewCond(&j.mu)
		m := &fleetMerge{s: s, j: j, order: order,
			pend: make(map[int]core.CellResult), seen: make(map[int]bool)}
		var wg sync.WaitGroup
		for shard := 0; shard < 2; shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				for i := shard; i < cells; i += 2 {
					m.add(core.CellResult{Index: i})
				}
			}(shard)
		}
		wg.Wait()
		if len(j.cells) != cells {
			t.Fatalf("round %d: merge released %d cells, want %d", r, len(j.cells), cells)
		}
		for i := 1; i < len(j.cells); i++ {
			if j.cells[i].Index <= j.cells[i-1].Index {
				t.Fatalf("round %d: stream not strictly ascending at position %d: %d after %d",
					r, i, j.cells[i].Index, j.cells[i-1].Index)
			}
		}
	}
}
