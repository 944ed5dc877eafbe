package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/noc"
)

// tinyScenario is a 2-config x 1-workload matrix that simulates in
// milliseconds.
const tinyScenario = `{
	"configs": [{"preset": "XBar/OCM"}, {"fabric": "swmr", "mem": "OCM"}],
	"workloads": ["Uniform"],
	"requests": 300,
	"seed": 7
}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postScenario(t *testing.T, ts *httptest.Server, body string) (JobView, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (JobView, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// waitStatus polls until the job reaches want (or any terminal state) and
// returns the final view.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, code := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if v.Status == want {
			return v
		}
		if v.Status == statusDone || v.Status == statusFailed || v.Status == statusCanceled || v.Status == statusTimedOut {
			t.Fatalf("job %s terminal at %q (error %q), want %q", id, v.Status, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q waiting for %q", id, v.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitStatusAndStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	v, resp := postScenario(t, ts, tinyScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if v.ID == "" || v.Total != 2 {
		t.Fatalf("submit view = %+v", v)
	}
	if got := resp.Header.Get("Location"); got != "/v1/jobs/"+v.ID {
		t.Errorf("Location = %q", got)
	}

	// The NDJSON stream follows the job live: one line per cell, exactly
	// Total lines, each a decodable core.CellResult with a real result.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q", ct)
	}
	var cells []core.CellResult
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var cell core.CellResult
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		cells = append(cells, cell)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	seen := map[string]bool{}
	for _, cell := range cells {
		seen[cell.Config] = true
		if cell.Workload != "Uniform" || cell.Result.Cycles == 0 {
			t.Errorf("bad cell %+v", cell)
		}
	}
	if !seen["XBar/OCM"] || !seen["SWMR/OCM"] {
		t.Errorf("streamed configs = %v, want both machines", seen)
	}

	final := waitStatus(t, ts, v.ID, statusDone)
	if final.Done != 2 || final.Error != "" {
		t.Fatalf("final view = %+v", final)
	}

	// A late reader replays the finished job's cells from the start.
	lateResp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer lateResp.Body.Close()
	late := 0
	lsc := bufio.NewScanner(lateResp.Body)
	for lsc.Scan() {
		late++
	}
	if late != 2 {
		t.Fatalf("late replay streamed %d cells, want 2", late)
	}
}

func TestSubmitRejectsInvalidScenarios(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed json", `{"configs": [}`, "scenario"},
		{"unknown fabric", `{"configs": [{"fabric": "warp"}]}`, "warp"},
		{"no configs", `{}`, "no configs"},
		{"unknown workload", `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Unifrm"]}`, "Unifrm"},
	}
	for _, c := range cases {
		_, resp := postScenario(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.name, resp.StatusCode)
		}
	}
	// And nothing was admitted.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Fatalf("invalid submissions left %d jobs behind", len(views))
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// A valid scenario padded with whitespace past the bound: the size
	// check, not the parser, must reject it.
	body := tinyScenario + strings.Repeat(" ", maxBodyBytes)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413", resp.StatusCode)
	}
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("scenario body exceeds %d bytes", maxBodyBytes); e.Error != want {
		t.Fatalf("error %q, want %q", e.Error, want)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestQueueBoundRejectsWith503(t *testing.T) {
	// One runner, one queue slot, and a slow job each: the first submission
	// occupies the runner, the second the queue; the third must bounce.
	slow := `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Uniform"], "requests": 2000000, "seed": 1}`
	_, ts := newTestServer(t, Options{QueueDepth: 1, Runners: 1,
		Client: core.NewClient(core.WithWorkers(1))})
	first, resp := postScenario(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, ts, first.ID, statusRunning)
	if _, resp = postScenario(t, ts, slow); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	if _, resp = postScenario(t, ts, slow); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third submit: HTTP %d, want 503", resp.StatusCode)
	}
	// Cancel the running job via the API; Close drains the queued one.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", dresp.StatusCode)
	}
	v := waitStatus(t, ts, first.ID, statusCanceled)
	if v.Error == "" {
		t.Error("canceled job reports no error detail")
	}
}

func TestFabricCatalogEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/fabrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []noc.CatalogEntry
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"xbar": false, "hmesh": false, "lmesh": false, "swmr": false}
	for _, v := range views {
		if _, ok := want[v.Name]; ok {
			want[v.Name] = true
		}
		if v.Display == "" {
			t.Errorf("fabric %q has no display name", v.Name)
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("catalog missing %q: %+v", name, views)
		}
	}
}

func TestGracefulCloseCancelsJobs(t *testing.T) {
	slow := `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Uniform"], "requests": 2000000, "seed": 1}`
	s := New(Options{Client: core.NewClient(core.WithWorkers(1))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	v, resp := postScenario(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, ts, v.ID, statusRunning)

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain the running job")
	}
	got, _ := getStatus(t, ts, v.ID)
	if got.Status != statusCanceled {
		t.Fatalf("job after Close: %q, want canceled", got.Status)
	}
	// Submissions after Close are refused, not queued into the void.
	if _, resp := postScenario(t, ts, tinyScenario); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestJobIDsAreSequential(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var ids []string
	for i := 0; i < 3; i++ {
		v, resp := postScenario(t, ts, tinyScenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("job-%06d", i+1); id != want {
			t.Errorf("id %d = %q, want %q", i, id, want)
		}
	}
}

func TestCancelQueuedJobFinalizesImmediately(t *testing.T) {
	// One busy runner: the second submission sits in the queue, and a DELETE
	// against it must report "canceled" right away, not linger at "queued".
	slow := `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Uniform"], "requests": 2000000, "seed": 1}`
	_, ts := newTestServer(t, Options{Runners: 1, Client: core.NewClient(core.WithWorkers(1))})
	running, resp := postScenario(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, ts, running.ID, statusRunning)
	queued, resp := postScenario(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(dresp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if v.Status != statusCanceled {
		t.Fatalf("DELETE of a queued job returned status %q, want canceled immediately", v.Status)
	}
	// And the runner must not resurrect it once it dequeues the husk: cancel
	// the running job so the runner reaches the queued one, then re-check.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if dresp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitStatus(t, ts, running.ID, statusCanceled)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got, _ := getStatus(t, ts, queued.ID); got.Status != statusCanceled {
			t.Fatalf("dequeued canceled job resurrected as %q", got.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFinishedJobsAreEvicted(t *testing.T) {
	// RetainJobs 2: after four quick jobs complete, the two oldest must be
	// gone (404) and the newest still queryable.
	_, ts := newTestServer(t, Options{RetainJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		v, resp := postScenario(t, ts, tinyScenario)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		waitStatus(t, ts, v.ID, statusDone)
		ids = append(ids, v.ID)
	}
	// The last submission's eviction pass ran with the earlier jobs already
	// terminal, so only the retained tail may remain.
	if _, code := getStatus(t, ts, ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest job %s still present (HTTP %d), want evicted", ids[0], code)
	}
	if v, code := getStatus(t, ts, ids[3]); code != http.StatusOK || v.Status != statusDone {
		t.Errorf("newest job %s: HTTP %d status %q, want 200/done", ids[3], code, v.Status)
	}
}
