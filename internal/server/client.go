package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"corona/internal/core"
)

// Client is a corona-serve API client with the retry discipline the daemon's
// backpressure is designed for: a 503 (queue full, shutting down) is retried
// with jittered exponential backoff, honoring the server's Retry-After hint
// as a floor, while 4xx responses — the caller's mistake — surface
// immediately. Transient transport failures (connection refused or reset, a
// dropped response — the signature of a worker daemon restarting) retry
// under the same envelope; only a canceled or expired context aborts
// immediately. A retried request may reach a daemon that already accepted
// the previous attempt (the response was lost, not the request), so a
// submit retry can duplicate a job — harmless under deterministic seeding,
// but worth knowing when counting jobs. The jitter is deterministic in the
// client's seed, so tests (and reproductions of production retry storms)
// replay exactly.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	baseDly time.Duration
	maxDly  time.Duration
	seed    uint64
	sleep   func(ctx context.Context, d time.Duration) error
}

// ClientOption configures a NewClient call.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying http.Client (default
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) ClientOption { return func(c *Client) { c.hc = hc } }

// WithRetries bounds how many times a 503 is retried before giving up
// (default 5; 0 disables retrying).
func WithRetries(n int) ClientOption { return func(c *Client) { c.retries = n } }

// WithBackoff sets the exponential backoff envelope: attempt k waits a
// jittered min(max, base<<k). Defaults: 250ms base, 10s max.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *Client) { c.baseDly, c.maxDly = base, max }
}

// WithRetrySeed seeds the jitter sequence; the same seed replays the same
// delays. Default 1.
func WithRetrySeed(seed uint64) ClientOption { return func(c *Client) { c.seed = seed } }

// withSleep substitutes the delay primitive so tests observe backoff
// decisions without waiting them out.
func withSleep(f func(context.Context, time.Duration) error) ClientOption {
	return func(c *Client) { c.sleep = f }
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8047").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:    baseURL,
		hc:      http.DefaultClient,
		retries: 5,
		baseDly: 250 * time.Millisecond,
		maxDly:  10 * time.Second,
		seed:    1,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.sleep == nil {
		c.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return c
}

// BaseURL returns the daemon address this client targets.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response that was not retried away: the status code
// plus the server's error message.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Message)
}

// splitmix64 is the same deterministic mixer the fault injector uses; here
// it derives per-attempt jitter from (seed, attempt).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// backoff computes the delay before retry `attempt` (0-based): an
// exponential envelope min(maxDly, baseDly<<attempt), jittered into
// [50%, 100%) so a fleet of clients rejected together does not return
// together, then floored at the server's Retry-After hint.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.baseDly << attempt
	if d <= 0 || d > c.maxDly {
		d = c.maxDly
	}
	frac := float64(splitmix64(c.seed^uint64(attempt))>>11) / float64(1<<53)
	d = time.Duration(float64(d) * (0.5 + 0.5*frac))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// retryAfter parses the response's Retry-After header (seconds form), 0 when
// absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do issues one request, retrying 503s and transient transport errors with
// backoff. body may be nil; it is re-sent from the buffer on every attempt.
// The caller owns the returned response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			// A transport-level failure — connection refused, reset, the
			// daemon restarting mid-handshake — is retried like a 503; a
			// dead context is the caller's signal and never is.
			if attempt >= c.retries || !transientError(err) {
				return nil, err
			}
			if err := c.sleep(ctx, c.backoff(attempt, 0)); err != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable || attempt >= c.retries {
			return resp, nil
		}
		hint := retryAfter(resp)
		resp.Body.Close()
		if err := c.sleep(ctx, c.backoff(attempt, hint)); err != nil {
			return nil, err
		}
	}
}

// transientError reports whether a Do failure is worth retrying: everything
// the transport can throw (refused, reset, EOF, a dropped connection) except
// a canceled or expired context, which reflects the caller's deadline, not
// the server's health.
func transientError(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// decode reads the response, mapping non-2xx to *APIError and 2xx JSON into
// out (when non-nil).
func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(raw, &e) != nil || e.Error == "" {
			e.Error = string(bytes.TrimSpace(raw))
		}
		return &APIError{Status: resp.StatusCode, Message: e.Error}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a scenario (the corona-sweep -config JSON, plus the optional
// "timeout" field) and returns the accepted job, retrying queue-full 503s.
func (c *Client) Submit(ctx context.Context, scenario []byte) (JobView, error) {
	var v JobView
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", scenario)
	if err != nil {
		return v, err
	}
	return v, decode(resp, &v)
}

// Health fetches /healthz. It is the probe behind the fleet coordinator's
// worker heartbeats: the returned queue depth and capacity feed admission
// accounting, and on a coordinator the view carries per-worker health rows.
func (c *Client) Health(ctx context.Context) (HealthView, error) {
	var v HealthView
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return v, err
	}
	return v, decode(resp, &v)
}

// Status fetches the job's current view.
func (c *Client) Status(ctx context.Context, id string) (JobView, error) {
	var v JobView
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return v, err
	}
	return v, decode(resp, &v)
}

// Cancel asks the daemon to stop the job.
func (c *Client) Cancel(ctx context.Context, id string) (JobView, error) {
	var v JobView
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return v, err
	}
	return v, decode(resp, &v)
}

// Stream follows the job's NDJSON results live, invoking fn for each cell as
// the daemon emits it, until the stream ends (the job reached a terminal
// state, or the connection broke — the returned error distinguishes the
// two), ctx is done, or fn returns an error (returned as-is). A fleet
// coordinator merges shards through it: cells already received stay
// received even when the stream dies mid-job.
// Note the stream itself is never transparently re-dialed — a broken stream
// returns an error so the caller can decide what is missing.
func (c *Client) Stream(ctx context.Context, id string, fn func(core.CellResult) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/results", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decode(resp, nil)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var cell core.CellResult
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			return fmt.Errorf("server: bad NDJSON line: %w", err)
		}
		if err := fn(cell); err != nil {
			return err
		}
	}
	return sc.Err()
}
