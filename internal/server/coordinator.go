package server

// Fleet coordination: a Server built with Options.Peers does not simulate
// anything itself. Each submitted campaign's cell matrix is split into
// contiguous index shards — one per worker — and every shard is dispatched
// to a worker daemon as a shard sub-job: the campaign's own scenario body
// with a "cells" selector riding it, executed by the worker through
// core.Subset. Because every cell is independently seeded (core.CellSeed),
// a cell computes the identical Result on any node, so the coordinator can
// merge shard streams back into one index-ordered result stream that is
// byte-identical (after index sort) to a single-node run of the same
// scenario — the property the fleet determinism suite pins.
//
// The availability layer on top of that protocol has four parts:
//
//   - Health registry (health.go): heartbeats classify every worker
//     healthy/suspect/dead/recovered; dead workers are skipped by dispatch
//     and speculation until a heartbeat brings them back.
//   - Circuit breakers (breaker.go): consecutive transport/5xx dispatch
//     failures open a worker's breaker so shards route around a peer that
//     answers the wire but fails sub-jobs; a half-open probe (or a live
//     heartbeat) closes it.
//   - Straggler speculation: a shard delivering cells far below the fleet's
//     median rate gets its undelivered cells speculatively re-dispatched to
//     a healthy peer; first result wins per cell, enforced inside
//     fleetMerge, so a duplicate delivery can never reach the stream.
//   - Deadline propagation: a campaign with a timeout hands every sub-job
//     the remaining budget, so workers abandon orphaned work themselves
//     even if the coordinator dies before canceling it.
//
// Failure handling rides the durability substrate: the worker client
// retries 503 backpressure and transient transport errors with backoff, and
// when a shard sub-job still dies — the worker crashed, was restarted, or
// failed the sub-job — the coordinator re-dispatches exactly the cells it
// has not yet received to the next dispatchable worker, up to a bounded
// number of attempts. Received cells are never re-run, and determinism
// makes retried or speculated cells indistinguishable from first-try ones.
// With a Store configured the coordinator journals merged cells like any
// daemon, so a restarted coordinator re-dispatches only the missing ones.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"corona/internal/core"
)

// maxShardAttempts bounds how many sub-job dispatches one shard may consume
// before its campaign fails: enough to walk the whole fleet twice (every
// worker gets a second chance after transient trouble), never fewer than 4
// so tiny fleets still ride out a worker restart.
func (s *Server) maxShardAttempts() int {
	if n := 2 * len(s.workers); n > 4 {
		return n
	}
	return 4
}

// runFleetJob executes one campaign by scattering its cells across the
// worker fleet and merging the shard streams. Its lifecycle mirrors
// runJob's exactly — same states, same journal semantics, same shutdown
// behavior — only the execution engine differs.
func (s *Server) runFleetJob(j *job) {
	defer s.containPanic(j)
	ctx, cancel, from, ok := s.startJob(j)
	if !ok {
		return
	}
	defer cancel()
	j.mu.Lock()
	resumedCells := len(j.restored)
	j.mu.Unlock()
	s.log.Info("fleet job running", "job", j.id, "from", from, "total", j.total,
		"resumed_cells", resumedCells, "fleet", len(s.workers), "timeout", j.timeout)
	started := time.Now()

	var err error
	if needed := s.neededCells(j); len(needed) > 0 {
		err = s.dispatchShards(ctx, j, needed)
	}
	s.finishJob(j, err, started)
}

// neededCells returns, in ascending order, the cell indices the campaign
// still has to produce: its full matrix (or submitted subset) minus the
// cells a resumed job already restored from the journal.
func (s *Server) neededCells(j *job) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	all := j.subset
	if all == nil {
		total := len(j.scenario.Configs) * len(j.scenario.Workloads)
		all = make([]int, total)
		for i := range all {
			all[i] = i
		}
	}
	needed := make([]int, 0, len(all)-len(j.restored))
	for _, i := range all {
		if !j.restored[i] {
			needed = append(needed, i)
		}
	}
	sort.Ints(needed)
	return needed
}

// dispatchShards splits the needed cells into one contiguous shard per
// worker and runs every shard dispatcher concurrently, with the straggler
// monitor watching their delivery rates; the first definitive shard failure
// cancels the rest of the campaign.
func (s *Server) dispatchShards(ctx context.Context, j *job, needed []int) error {
	shards := splitShards(needed, len(s.workers))
	m := &fleetMerge{
		s:     s,
		j:     j,
		order: needed,
		pend:  make(map[int]core.CellResult),
		seen:  make(map[int]bool),
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runs := make([]*shardRun, len(shards))
	for k := range shards {
		runs[k] = newShardRun(runCtx, j, m, k, shards[k])
	}
	// Speculation goroutines outlive individual shard dispatchers, so they
	// get their own WaitGroup, drained only after runCtx is canceled.
	var specWG sync.WaitGroup
	if len(s.workers) > 1 && len(runs) > 1 {
		specWG.Add(1)
		go s.speculationMonitor(runCtx, runs, &specWG)
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for k := range runs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := s.runShard(runs[k]); err != nil {
				errs[k] = err
				cancel()
			}
		}(k)
	}
	wg.Wait()
	cancel()
	specWG.Wait()
	// A real failure outranks the cancellations it caused in the sibling
	// shards; with none, the outer context's verdict (deadline, user
	// cancel, shutdown) is the story.
	for _, err := range errs {
		if err != nil && !isCancellation(err) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitShards chunks the (ascending) indices into at most n contiguous,
// near-equal runs — the static sharding a fleet inherits from the sweep
// engine: which worker owns a cell affects wall-clock only, never results.
func splitShards(indices []int, n int) [][]int {
	if n > len(indices) {
		n = len(indices)
	}
	shards := make([][]int, 0, n)
	for k := 0; k < n; k++ {
		lo, hi := k*len(indices)/n, (k+1)*len(indices)/n
		shards = append(shards, indices[lo:hi])
	}
	return shards
}

// shardRun is the shared state of one shard's campaign: the primary
// dispatcher (runShard) and any speculative re-dispatch deliver through it,
// it tracks which cells have landed, and its context is canceled the moment
// the last cell arrives so whichever stream is still running stops.
type shardRun struct {
	s     *Server
	j     *job
	m     *fleetMerge
	k     int
	cells []int
	in    map[int]bool

	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	got         map[int]bool
	started     time.Time
	finished    time.Time // zero until the last cell lands
	curWorker   string    // worker the primary dispatcher is streaming from
	speculating bool      // a speculation goroutine is in flight
}

func newShardRun(ctx context.Context, j *job, m *fleetMerge, k int, cells []int) *shardRun {
	in := make(map[int]bool, len(cells))
	for _, i := range cells {
		in[i] = true
	}
	sh := &shardRun{
		s:       m.s,
		j:       j,
		m:       m,
		k:       k,
		cells:   cells,
		in:      in,
		got:     make(map[int]bool, len(cells)),
		started: time.Now(),
	}
	sh.ctx, sh.cancel = context.WithCancel(ctx)
	return sh
}

// deliver accepts one cell from any stream serving this shard — primary or
// speculative — deduplicating within the shard before handing it to the
// merge (which enforces first-result-wins once more, globally). Completing
// the shard cancels its context, stopping whichever stream is still open.
func (sh *shardRun) deliver(cell core.CellResult) {
	sh.mu.Lock()
	if !sh.in[cell.Index] || sh.got[cell.Index] {
		sh.mu.Unlock()
		return
	}
	sh.got[cell.Index] = true
	done := len(sh.got) == len(sh.cells)
	if done {
		sh.finished = time.Now()
	}
	sh.mu.Unlock()
	sh.m.add(cell)
	if done {
		sh.cancel()
	}
}

// complete reports whether every cell of the shard has been delivered.
func (sh *shardRun) complete() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.got) == len(sh.cells)
}

// missing returns the shard cells not yet delivered, ascending.
func (sh *shardRun) missing() []int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	missing := make([]int, 0, len(sh.cells)-len(sh.got))
	for _, i := range sh.cells {
		if !sh.got[i] {
			missing = append(missing, i)
		}
	}
	return missing
}

// rate is the shard's observed delivery rate in cells/sec — over its whole
// life once finished, over the elapsed window while running.
func (sh *shardRun) rate(now time.Time) float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	end := sh.finished
	if end.IsZero() {
		end = now
	}
	dt := end.Sub(sh.started).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(len(sh.got)) / dt
}

func (sh *shardRun) setWorker(name string) {
	sh.mu.Lock()
	sh.curWorker = name
	sh.mu.Unlock()
}

// claimSpeculation atomically decides whether this shard is a straggler
// right now and, if so, claims the (single) speculation slot. The caller
// must release it with releaseSpeculation when the speculative dispatch
// ends, successful or not.
func (sh *shardRun) claimSpeculation(now time.Time, medianRate float64, t FleetTuning) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.speculating || len(sh.got) == len(sh.cells) {
		return false
	}
	if now.Sub(sh.started) < t.SpeculationAfter {
		return false
	}
	dt := now.Sub(sh.started).Seconds()
	if dt <= 0 {
		return false
	}
	if float64(len(sh.got))/dt >= t.SpeculationFactor*medianRate {
		return false
	}
	sh.speculating = true
	return true
}

func (sh *shardRun) releaseSpeculation() {
	sh.mu.Lock()
	sh.speculating = false
	sh.mu.Unlock()
}

// nextWorker picks the next dispatch target at or after cursor: the first
// worker the health registry calls live whose breaker admits traffic. When
// every worker is dead or breaker-open the plain round-robin choice is
// returned anyway — the client's own backoff paces the desperation, and a
// fleet that is wholly down should fail the campaign through the attempt
// budget, not hang it.
func (s *Server) nextWorker(cursor int) (*worker, int) {
	n := len(s.workers)
	now := time.Now()
	for i := 0; i < n; i++ {
		w := s.workers[(cursor+i)%n]
		if w.live() && w.br.allow(now) {
			return w, (cursor + i + 1) % n
		}
	}
	return s.workers[cursor%n], (cursor + 1) % n
}

// runShard drives one shard to completion: dispatch the missing cells to a
// worker as a sub-job, stream its results into the merge, and — when the
// worker dies or the sub-job ends without delivering everything — move the
// remainder to the next dispatchable worker within the attempt budget.
// Speculative deliveries count: a shard whose straggling sub-job is
// out-raced by a speculation completes here with a canceled stream.
func (s *Server) runShard(sh *shardRun) error {
	j := sh.j
	cursor := sh.k % len(s.workers)
	var lastErr error
	for attempt := 0; !sh.complete(); attempt++ {
		if err := sh.ctx.Err(); err != nil {
			if sh.complete() {
				return nil
			}
			return err
		}
		if attempt >= s.maxShardAttempts() {
			missing := sh.missing()
			return fmt.Errorf("shard %d: %d of %d cells undone after %d dispatches: %w",
				sh.k, len(missing), len(sh.cells), attempt, lastErr)
		}
		if attempt > 0 {
			s.fleet.noteRetry()
		}
		missing := sh.missing()
		var w *worker
		w, cursor = s.nextWorker(cursor)
		sh.setWorker(w.name)
		body, err := shardBody(j.raw, missing, remainingTimeout(sh.ctx))
		if err != nil {
			return fmt.Errorf("shard %d: building sub-job body: %w", sh.k, err)
		}
		s.fleet.noteDispatch(w.name)
		sub, err := w.client.Submit(sh.ctx, body)
		if err != nil {
			if breakerWorthy(err) {
				w.br.recordFailure(time.Now())
			}
			lastErr = fmt.Errorf("worker %s: submit: %w", w.name, err)
			s.log.Warn("shard dispatch failed", "job", j.id, "shard", sh.k,
				"worker", w.name, "attempt", attempt+1, "err", err)
			continue
		}
		s.log.Info("shard dispatched", "job", j.id, "shard", sh.k, "worker", w.name,
			"sub_job", sub.ID, "cells", len(missing), "attempt", attempt+1)
		streamErr := w.client.Stream(sh.ctx, sub.ID, func(cell core.CellResult) error {
			sh.deliver(cell)
			return nil
		})
		if sh.ctx.Err() != nil {
			// The shard is over — complete (possibly via speculation), or the
			// campaign was canceled: stop the worker's sub-job rather than
			// letting it burn cycles.
			stopCtx, stop := context.WithTimeout(context.Background(), 2*time.Second)
			w.client.Cancel(stopCtx, sub.ID)
			stop()
			if sh.complete() {
				w.br.recordSuccess()
				return nil
			}
			return sh.ctx.Err()
		}
		if streamErr != nil {
			if breakerWorthy(streamErr) {
				w.br.recordFailure(time.Now())
			}
			lastErr = fmt.Errorf("worker %s: stream of %s: %w", w.name, sub.ID, streamErr)
			s.log.Warn("shard stream broke; retrying missing cells", "job", j.id,
				"shard", sh.k, "worker", w.name, "done", len(sh.cells)-len(sh.missing()),
				"of", len(sh.cells), "err", streamErr)
			continue
		}
		if sh.complete() {
			w.br.recordSuccess()
			break
		}
		// The stream ended cleanly but cells are missing: the sub-job failed
		// or was canceled on the worker. Record its verdict and retry. The
		// worker answered coherently throughout, so this is not breaker-worthy.
		if v, verr := w.client.Status(sh.ctx, sub.ID); verr != nil {
			lastErr = fmt.Errorf("worker %s: sub-job %s status: %w", w.name, sub.ID, verr)
		} else {
			lastErr = fmt.Errorf("worker %s: sub-job %s ended %s: %s", w.name, sub.ID, v.Status, v.Error)
		}
		s.log.Warn("shard sub-job incomplete; retrying missing cells", "job", j.id,
			"shard", sh.k, "worker", w.name, "done", len(sh.cells)-len(sh.missing()),
			"of", len(sh.cells), "err", lastErr)
	}
	return nil
}

// speculationMonitor watches every shard's delivery rate on a fixed cadence
// and re-dispatches stragglers: a shard old enough to judge whose rate has
// fallen below SpeculationFactor x the fleet median gets its undelivered
// cells sent to another worker. First result wins per cell; determinism
// makes the race unobservable in the merged stream.
func (s *Server) speculationMonitor(ctx context.Context, runs []*shardRun, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(s.tuning.SpeculationInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		rates := make([]float64, len(runs))
		for i, sh := range runs {
			rates[i] = sh.rate(now)
		}
		med := median(rates)
		if med <= 0 {
			continue
		}
		for _, sh := range runs {
			if sh.claimSpeculation(now, med, s.tuning) {
				wg.Add(1)
				go s.speculate(sh, wg)
			}
		}
	}
}

// median of a rate sample; the input slice is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// speculationTarget picks the worker a straggling shard's cells are
// re-dispatched to: a live worker with a closed breaker, not the one the
// straggler is already streaming from, preferring the shallowest reported
// queue. Nil when no such worker exists — speculation is strictly
// best-effort and never falls back to a degraded peer.
func (s *Server) speculationTarget(exclude string) *worker {
	var best *worker
	bestDepth := int(^uint(0) >> 1)
	for _, w := range s.workers {
		if w.name == exclude || !w.live() || w.br.isOpen() {
			continue
		}
		w.mu.Lock()
		depth := w.queueDepth
		w.mu.Unlock()
		if best == nil || depth < bestDepth {
			best, bestDepth = w, depth
		}
	}
	return best
}

// speculate runs one speculative dispatch for a straggling shard: submit the
// undelivered cells to a healthy peer and stream whatever it produces into
// the shard (first result wins). Any failure just releases the speculation
// slot — the primary dispatcher still owns correctness, so the monitor may
// try again on a later tick.
func (s *Server) speculate(sh *shardRun, wg *sync.WaitGroup) {
	defer wg.Done()
	defer sh.releaseSpeculation()
	missing := sh.missing()
	if len(missing) == 0 {
		return
	}
	sh.mu.Lock()
	exclude := sh.curWorker
	sh.mu.Unlock()
	w := s.speculationTarget(exclude)
	if w == nil {
		return
	}
	body, err := shardBody(sh.j.raw, missing, remainingTimeout(sh.ctx))
	if err != nil {
		return
	}
	s.fleet.noteDispatch(w.name)
	s.fleet.noteSpeculation()
	sub, err := w.client.Submit(sh.ctx, body)
	if err != nil {
		s.log.Warn("speculative dispatch failed", "job", sh.j.id, "shard", sh.k,
			"worker", w.name, "err", err)
		return
	}
	s.log.Info("straggler speculation dispatched", "job", sh.j.id, "shard", sh.k,
		"slow_worker", exclude, "worker", w.name, "sub_job", sub.ID, "cells", len(missing))
	w.client.Stream(sh.ctx, sub.ID, func(cell core.CellResult) error {
		sh.deliver(cell)
		return nil
	})
	// Whether the speculation won, lost, or broke, the sub-job must not
	// outlive it.
	stopCtx, stop := context.WithTimeout(context.Background(), 2*time.Second)
	w.client.Cancel(stopCtx, sub.ID)
	stop()
}

// remainingTimeout converts the run context's deadline into the "timeout"
// value a shard sub-job should carry: the budget left right now, so a
// worker abandons orphaned work on its own schedule even if the coordinator
// never gets to cancel it. Zero (no deadline) omits the field.
func remainingTimeout(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	rem := time.Until(dl).Round(time.Millisecond)
	if rem < time.Millisecond {
		rem = time.Millisecond
	}
	return rem
}

// shardBody rewrites the campaign's scenario body into a worker sub-job:
// the same scenario with a "cells" selector for exactly the given indices,
// and the campaign's remaining deadline budget (or no timeout at all) in
// place of the submitted one — the coordinator owns the campaign deadline;
// the propagated remainder is the worker's backstop.
func shardBody(raw json.RawMessage, cells []int, timeout time.Duration) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "timeout")
	if timeout > 0 {
		tb, err := json.Marshal(timeout.String())
		if err != nil {
			return nil, err
		}
		m["timeout"] = tb
	}
	sel, err := json.Marshal(cellSelector(cells))
	if err != nil {
		return nil, err
	}
	m["cells"] = sel
	return json.Marshal(m)
}

// cellSelector compresses a sorted index list into the range form when it
// is one contiguous run — the common case for a first dispatch; retries of
// a partially-delivered shard fall back to the explicit list.
func cellSelector(cells []int) *cellRange {
	contiguous := len(cells) > 0
	for i := 1; i < len(cells); i++ {
		if cells[i] != cells[i-1]+1 {
			contiguous = false
			break
		}
	}
	if contiguous {
		lo, hi := cells[0], cells[len(cells)-1]+1
		return &cellRange{Lo: &lo, Hi: &hi}
	}
	return &cellRange{List: cells}
}

// fleetMerge reassembles shard streams into the job's cell list in strictly
// ascending index order: a cell arriving out of order parks in pend until
// every lower needed index has been released. Index order makes the
// coordinator's stream deterministic — byte-identical across fleet sizes,
// retry schedules, speculation races, and completion order — where a single
// node's stream is only deterministic up to reordering.
type fleetMerge struct {
	s     *Server
	j     *job
	mu    sync.Mutex
	order []int // the needed indices, ascending
	next  int   // position in order of the next index to release
	pend  map[int]core.CellResult
	seen  map[int]bool // first-result-wins: indices already accepted
}

// add accepts a cell under first-result-wins semantics — the speculation
// race's same-index duplicate is dropped here, authoritatively, whatever
// the shard-level dedup upstream saw — then releases the longest
// now-contiguous prefix to the job (observers wake per cell, the journal
// gets every release exactly once). Releasing under m.mu keeps two
// deliverers' batches from interleaving in the job's stream. Reports
// whether the cell was accepted.
func (m *fleetMerge) add(cell core.CellResult) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[cell.Index] {
		return false
	}
	m.seen[cell.Index] = true
	m.pend[cell.Index] = cell
	for m.next < len(m.order) {
		c, ok := m.pend[m.order[m.next]]
		if !ok {
			break
		}
		delete(m.pend, m.order[m.next])
		m.next++
		m.j.mu.Lock()
		m.j.cells = append(m.j.cells, c)
		m.j.cond.Broadcast()
		m.j.mu.Unlock()
		m.s.persistCell(m.j.id, c)
		m.s.cellsDone.Add(1)
	}
	return true
}

// fleetMetrics counts shard dispatches per worker, shard retries, and
// straggler speculations, for the coordinator's /metrics export.
type fleetMetrics struct {
	mu         sync.Mutex
	dispatched map[string]uint64
	retries    uint64
	specs      uint64
}

func (f *fleetMetrics) noteDispatch(worker string) {
	f.mu.Lock()
	if f.dispatched == nil {
		f.dispatched = make(map[string]uint64)
	}
	f.dispatched[worker]++
	f.mu.Unlock()
}

func (f *fleetMetrics) noteRetry() {
	f.mu.Lock()
	f.retries++
	f.mu.Unlock()
}

func (f *fleetMetrics) noteSpeculation() {
	f.mu.Lock()
	f.specs++
	f.mu.Unlock()
}

// snapshot copies the counters for a scrape.
func (f *fleetMetrics) snapshot() (dispatched map[string]uint64, retries, specs uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dispatched = make(map[string]uint64, len(f.dispatched))
	for w, n := range f.dispatched {
		dispatched[w] = n
	}
	return dispatched, f.retries, f.specs
}
