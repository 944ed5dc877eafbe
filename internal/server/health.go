package server

// Worker health registry: one per-worker state machine, driven by the
// coordinator's heartbeats on /healthz and by breaker-worthy dispatch
// failures, each of which counts as a missed beat —
//
//	healthy --(1 missed beat)--> suspect
//	suspect --(DeadAfter consecutive missed beats)--> dead
//	dead    --(1 live heartbeat)--> recovered --(next live heartbeat)--> healthy
//
// Dead workers are out of dispatch: their loops lease no cells (see
// coordinator.go) until a live heartbeat brings them back, no operator
// action required. A worker that answers /healthz but fails every sub-job
// still leaves dispatch through its failures, and its next live heartbeat
// gives it another try. The same heartbeat carries the worker's queue
// depth and capacity, which feed the coordinator's admission control
// (fleetAdmission): when every live worker's queue is full the coordinator
// sheds new campaigns with 503 and a Retry-After computed from the fleet's
// observed drain rate, instead of accepting work it can only stall on.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"
)

// Worker health states as reported by /healthz and counted by /metrics.
// "recovered" is a one-heartbeat display state: the worker is dispatchable
// again, and the next live heartbeat promotes it to "healthy".
const (
	workerHealthy   = "healthy"
	workerSuspect   = "suspect"
	workerDead      = "dead"
	workerRecovered = "recovered"
)

// FleetTuning parameterizes the coordinator's availability layer. The zero
// value means "use the default" for every field, so Options.Tuning can be
// left unset.
type FleetTuning struct {
	// HeartbeatInterval is the worker /healthz polling cadence. Default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one heartbeat probe (a single attempt, no
	// retries). Default: HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// DeadAfter is how many consecutive missed beats — failed heartbeats
	// or transport/5xx dispatch failures — declare a worker dead (the first
	// already marks it suspect). Default 3.
	DeadAfter int
	// SpeculationAfter is the minimum lease age before it can be judged a
	// straggler — rates over tiny windows are noise. Idle dispatch loops
	// look for stragglers every SpeculationAfter/8. Default 2s.
	SpeculationAfter time.Duration
}

// withDefaults fills every unset field.
func (t FleetTuning) withDefaults() FleetTuning {
	if t.HeartbeatInterval <= 0 {
		t.HeartbeatInterval = time.Second
	}
	if t.HeartbeatTimeout <= 0 {
		t.HeartbeatTimeout = t.HeartbeatInterval
	}
	if t.DeadAfter <= 0 {
		t.DeadAfter = 3
	}
	if t.SpeculationAfter <= 0 {
		t.SpeculationAfter = 2 * time.Second
	}
	return t
}

// heartbeatTransport disables keep-alives so every heartbeat is a fresh
// connection: a probe that reuses a pre-partition connection would report a
// partitioned worker healthy.
var heartbeatTransport http.RoundTripper = &http.Transport{DisableKeepAlives: true}

// worker is one fleet peer plus everything the availability layer knows
// about it: the retrying dispatch client, a single-attempt heartbeat client,
// the health state machine, and the last-reported queue figures.
type worker struct {
	client *Client // dispatch client (backoff retries)
	hb     *Client // heartbeat client: one attempt, no keep-alive
	name   string

	mu          sync.Mutex
	state       string
	consecFails int
	queueDepth  int
	queueCap    int
	hasQueue    bool // at least one heartbeat has reported queue figures
}

func newWorker(c *Client) *worker {
	return &worker{
		client: c,
		hb: NewClient(c.BaseURL(), WithRetries(0),
			WithHTTPClient(&http.Client{Transport: heartbeatTransport})),
		name:  c.BaseURL(),
		state: workerHealthy, // optimistic until the first heartbeat says otherwise
	}
}

// snapshot copies the health fields for /healthz and /metrics. Breaker
// is "open" while the worker is out of dispatch (dead), else "closed".
func (w *worker) snapshot() WorkerHealth {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := WorkerHealth{
		Name:          w.name,
		State:         w.state,
		Breaker:       "closed",
		QueueDepth:    w.queueDepth,
		QueueCapacity: w.queueCap,
	}
	if w.state == workerDead {
		v.Breaker = "open"
	}
	return v
}

// live reports whether the worker is in dispatch: anything but dead.
func (w *worker) live() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state != workerDead
}

// dispatchable reports whether w's loop may lease cells: w is live, or no
// worker is — a wholly-down fleet keeps dispatching so its campaigns fail
// through the dispatch budget instead of hanging.
func (s *Server) dispatchable(w *worker) bool {
	return w.live() || !slices.ContainsFunc(s.workers, (*worker).live)
}

// heartbeatLoop polls one worker until the server closes.
func (s *Server) heartbeatLoop(w *worker) {
	defer s.wg.Done()
	t := time.NewTicker(s.tuning.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		s.heartbeat(w)
	}
}

// heartbeat runs one probe and advances the worker's state machine.
func (s *Server) heartbeat(w *worker) {
	ctx, cancel := context.WithTimeout(s.ctx, s.tuning.HeartbeatTimeout)
	hv, err := w.hb.Health(ctx)
	cancel()
	if err != nil {
		s.missedBeat(w, err)
		return
	}
	w.mu.Lock()
	prev := w.state
	w.consecFails = 0
	if prev == workerDead {
		w.state = workerRecovered
	} else {
		w.state = workerHealthy
	}
	w.queueDepth, w.queueCap, w.hasQueue = hv.QueueDepth, hv.QueueCapacity, true
	cur := w.state
	w.mu.Unlock()
	if cur != prev {
		s.log.Info("worker rejoined the fleet", "worker", w.name, "state", cur)
	}
}

// missedBeat counts one failed heartbeat or breaker-worthy dispatch failure
// against w: suspect at once, dead after DeadAfter in a row.
func (s *Server) missedBeat(w *worker, err error) {
	w.mu.Lock()
	prev := w.state
	w.consecFails++
	if w.consecFails >= s.tuning.DeadAfter {
		w.state = workerDead
	} else {
		w.state = workerSuspect
	}
	cur, fails := w.state, w.consecFails
	w.mu.Unlock()
	if cur != prev {
		s.log.Warn("worker health degraded", "worker", w.name,
			"state", cur, "consecutive_failures", fails, "err", err)
	}
}

// breakerWorthy reports whether a dispatch failure indicts the worker: a
// transport-level error (refused, reset, a dropped response) or a 5xx
// answer. A context cancellation is the campaign's own signal and a 4xx is
// the coordinator's own mistake; neither says anything about worker health.
func breakerWorthy(err error) bool {
	if err == nil || !transientError(err) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	return true
}

// fleetAdmission is the coordinator's overload control: a campaign is
// admitted only when at least one worker is live and the live workers'
// queues have headroom. Refusals carry a Retry-After derived from the
// fleet's observed drain rate, so shed clients back off by measurement
// instead of by guess.
func (s *Server) fleetAdmission() (retryAfter int, reason string, ok bool) {
	live, depth, capacity, reported := 0, 0, 0, 0
	for _, w := range s.workers {
		w.mu.Lock()
		if w.state != workerDead {
			live++
			if w.hasQueue {
				reported++
				depth += w.queueDepth
				capacity += w.queueCap
			}
		}
		w.mu.Unlock()
	}
	if live == 0 {
		return s.drainRetryAfter(), "no live workers in the fleet; retry later", false
	}
	if reported > 0 && capacity > 0 && depth >= capacity {
		return s.drainRetryAfter(),
			"fleet saturated: every live worker's queue is full; retry later", false
	}
	return 0, "", true
}

// noteJobDone records a job-completion timestamp for the drain-rate
// estimator; the ring keeps the most recent drainKeep completions.
func (s *Server) noteJobDone(at time.Time) {
	s.doneMu.Lock()
	s.doneTimes = append(s.doneTimes, at)
	if len(s.doneTimes) > drainKeep {
		s.doneTimes = s.doneTimes[len(s.doneTimes)-drainKeep:]
	}
	s.doneMu.Unlock()
}

// drainRetryAfter computes the Retry-After hint (seconds) for a shed
// submission from the observed completion rate and the current backlog.
func (s *Server) drainRetryAfter() int {
	s.doneMu.Lock()
	done := make([]time.Time, len(s.doneTimes))
	copy(done, s.doneTimes)
	s.doneMu.Unlock()
	return drainEstimate(done, len(s.queue), time.Now())
}

// Drain-estimator windowing: completions older than drainWindow no longer
// inform the rate, the ring keeps at most drainKeep samples, and the hint is
// clamped to drainMaxHint so one slow campaign cannot steer clients away for
// hours.
const (
	drainWindow  = 60 * time.Second
	drainKeep    = 32
	drainMaxHint = 60
)

// drainEstimate turns recent job-completion times (ascending) and the
// current queue depth into a Retry-After hint: the mean inter-completion gap
// over the window, times the jobs ahead of the next submission, rounded up.
// With fewer than two recent completions there is no rate to measure and the
// static retryAfterFull fallback applies.
func drainEstimate(done []time.Time, queueDepth int, now time.Time) int {
	recent := done[:0:0]
	for _, at := range done {
		if now.Sub(at) <= drainWindow {
			recent = append(recent, at)
		}
	}
	if len(recent) < 2 {
		return retryAfterFull
	}
	span := recent[len(recent)-1].Sub(recent[0]).Seconds()
	if span <= 0 {
		return retryAfterFull
	}
	perJob := span / float64(len(recent)-1)
	est := int(math.Ceil(perJob * float64(queueDepth+1)))
	if est < 1 {
		est = 1
	}
	if est > drainMaxHint {
		est = drainMaxHint
	}
	return est
}
