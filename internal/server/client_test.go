package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/core"
)

// recordedSleeps swaps the client's delay primitive for a recorder, so
// backoff decisions are observable without waiting them out.
func recordedSleeps(delays *[]time.Duration) ClientOption {
	return withSleep(func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	})
}

// TestClientRetries503HonoringRetryAfter bounces the first two submissions
// with 503 + Retry-After and accepts the third: the client must succeed,
// having backed off twice with at least the server's hint.
func TestClientRetries503HonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id": "job-000001", "status": "queued", "total": 2}`))
	}))
	defer ts.Close()
	var delays []time.Duration
	c := NewClient(ts.URL, recordedSleeps(&delays))
	v, err := c.Submit(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-000001" || calls.Load() != 3 {
		t.Fatalf("view %+v after %d calls", v, calls.Load())
	}
	if len(delays) != 2 {
		t.Fatalf("backed off %d times, want 2", len(delays))
	}
	for i, d := range delays {
		if d < 3*time.Second {
			t.Errorf("delay %d = %v, want >= the 3s Retry-After floor", i, d)
		}
	}
}

// TestClientBackoffDeterministicJitter pins the jitter contract: delays grow
// with the exponential envelope, stay within [50%, 100%] of it, and replay
// exactly for a given seed.
func TestClientBackoffDeterministicJitter(t *testing.T) {
	a := NewClient("http://x", WithRetrySeed(9), WithBackoff(100*time.Millisecond, 2*time.Second))
	b := NewClient("http://x", WithRetrySeed(9), WithBackoff(100*time.Millisecond, 2*time.Second))
	for attempt := 0; attempt < 8; attempt++ {
		da, db := a.backoff(attempt, 0), b.backoff(attempt, 0)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		env := 100 * time.Millisecond << attempt
		if env <= 0 || env > 2*time.Second {
			env = 2 * time.Second
		}
		if da < env/2 || da > env {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, da, env/2, env)
		}
	}
	// And Retry-After floors whatever the envelope said.
	if d := a.backoff(0, 7*time.Second); d != 7*time.Second {
		t.Errorf("floored delay = %v, want 7s", d)
	}
}

// TestClientSurfaces4xxImmediately asserts a 400 is the caller's problem —
// no retries, an *APIError with the server's message.
func TestClientSurfaces4xxImmediately(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, "scenario: no configs")
	}))
	defer ts.Close()
	var delays []time.Duration
	c := NewClient(ts.URL, recordedSleeps(&delays))
	_, err := c.Submit(context.Background(), []byte(`{}`))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Message != "scenario: no configs" {
		t.Fatalf("Submit = %v, want the 400 APIError", err)
	}
	if calls.Load() != 1 || len(delays) != 0 {
		t.Fatalf("%d calls, %d backoffs; want one call, no retries", calls.Load(), len(delays))
	}
}

// TestClientRetriesExhaust gives up after the configured retry budget with
// the final 503 surfaced.
func TestClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		writeUnavailable(w, 1, "job queue full; retry later")
	}))
	defer ts.Close()
	var delays []time.Duration
	c := NewClient(ts.URL, WithRetries(3), recordedSleeps(&delays))
	_, err := c.Submit(context.Background(), []byte(`{}`))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("Submit = %v, want the exhausted 503", err)
	}
	if calls.Load() != 4 || len(delays) != 3 {
		t.Fatalf("%d calls, %d backoffs; want 4 and 3", calls.Load(), len(delays))
	}
}

// droppingListener closes the first drop accepted connections before any
// byte is served — the transport signature of a daemon restarting (the port
// answers, the process is not there yet) — then hands connections through.
type droppingListener struct {
	net.Listener
	drop int32
}

func (l *droppingListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if atomic.AddInt32(&l.drop, -1) >= 0 {
			conn.Close()
			continue
		}
		return conn, nil
	}
}

// TestClientRetriesTransportErrors drops the first three connections on the
// floor: the client must back off and land the request on the fourth, since
// a fleet coordinator's worker restarting mid-campaign looks exactly like
// this.
func TestClientRetriesTransportErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id": "job-000001", "status": "queued", "total": 2}`))
	})}
	go hs.Serve(&droppingListener{Listener: ln, drop: 3})
	defer hs.Close()

	var delays []time.Duration
	// Connection reuse off: a kept-alive connection would dodge the dropped
	// accepts this test exists to exercise.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	c := NewClient("http://"+ln.Addr().String(), WithHTTPClient(hc), recordedSleeps(&delays))
	v, err := c.Submit(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatalf("Submit through 3 dropped connections: %v", err)
	}
	if v.ID != "job-000001" || calls.Load() != 1 {
		t.Fatalf("view %+v after %d served calls", v, calls.Load())
	}
	if len(delays) != 3 {
		t.Fatalf("backed off %d times, want 3", len(delays))
	}
}

// TestClientTransportRetriesExhaust points the client at a port nothing
// listens on: every attempt fails at the transport, the retry budget drains,
// and the final connection error surfaces (not an APIError — there was no
// HTTP exchange to report).
func TestClientTransportRetriesExhaust(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // now connections are refused

	var delays []time.Duration
	c := NewClient("http://"+addr, WithRetries(2), recordedSleeps(&delays))
	_, err = c.Submit(context.Background(), []byte(`{}`))
	if err == nil {
		t.Fatal("Submit against a closed port succeeded")
	}
	var ae *APIError
	if errors.As(err, &ae) {
		t.Fatalf("transport failure surfaced as APIError %v", ae)
	}
	if len(delays) != 2 {
		t.Fatalf("backed off %d times, want the full budget of 2", len(delays))
	}
}

// TestClientDoesNotRetryCanceledContext pins the exception: a dead context
// aborts immediately, no matter how transient the transport failure looks.
func TestClientDoesNotRetryCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var delays []time.Duration
	c := NewClient("http://127.0.0.1:0", recordedSleeps(&delays))
	if _, err := c.Submit(ctx, []byte(`{}`)); err == nil {
		t.Fatal("Submit with a canceled context succeeded")
	}
	if len(delays) != 0 {
		t.Fatalf("backed off %d times on a canceled context, want 0", len(delays))
	}
}

// TestClientEndToEnd drives a real daemon through the client: submit,
// stream the results live to the end, read the finished job's status, and
// cancel-of-unknown as the error path.
func TestClientEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := NewClient(ts.URL)
	ctx := context.Background()
	v, err := c.Submit(ctx, []byte(tinyScenario))
	if err != nil {
		t.Fatal(err)
	}
	var cells []core.CellResult
	err = c.Stream(ctx, v.ID, func(cell core.CellResult) error {
		cells = append(cells, cell)
		return nil
	})
	if err != nil || len(cells) != 2 {
		t.Fatalf("Stream = %d cells, %v; want 2", len(cells), err)
	}
	for _, cell := range cells {
		if cell.Result.Cycles == 0 {
			t.Errorf("streamed cell %+v has no result", cell)
		}
	}
	// The stream ends only once the job is terminal.
	if final, err := c.Status(ctx, v.ID); err != nil || final.Status != statusDone || final.Done != 2 {
		t.Fatalf("Status after the stream = %+v, %v; want done with 2 cells", final, err)
	}
	if _, err := c.Status(ctx, "job-999999"); err == nil {
		t.Error("Status of an unknown job did not error")
	}
	if _, err := c.Cancel(ctx, "job-999999"); err == nil {
		t.Error("Cancel of an unknown job did not error")
	}
}
