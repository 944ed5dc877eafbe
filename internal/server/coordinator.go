package server

// Fleet coordination: a Server built with Options.Peers does not simulate
// anything itself. Each submitted campaign's needed cells go into one
// per-campaign cell queue, and one dispatch loop per worker leases batches
// of cells from it. A lease is dispatched to its worker daemon as a
// sub-job: the campaign's own scenario body with a "cells" selector riding
// it, executed by the worker through core.Subset. Because every cell is
// independently seeded (core.CellSeed), a cell computes the identical
// Result on any node, so the coordinator can merge sub-job streams back
// into one index-ordered result stream that is byte-identical (after index
// sort) to a single-node run of the same scenario — the property the fleet
// determinism suite pins.
//
// The queue's rules are the whole availability layer:
//
//   - First leases: loop k's first lease is contiguous shard k of
//     splitShards, so a healthy campaign sends one sub-job per worker.
//   - Retry: a lease ends when its sub-job stream ends, and its undelivered
//     cells go back to the queue for another worker's loop to take: the
//     worker that failed a cell takes it again only while no other worker
//     is dispatchable. A cell may be dispatched maxDispatches times before
//     its campaign fails.
//   - Speculation: a loop with nothing to lease re-leases the undelivered
//     cells of a straggling lease, at most one copy in flight per lease.
//     First result wins per cell inside fleetMerge, so the race never
//     reaches the stream.
//   - Health (health.go): heartbeats and breaker-worthy dispatch failures
//     drive one per-worker state machine, and loops skip dead workers —
//     unless every worker is dead, so a wholly-down fleet fails the
//     campaign through the budget instead of hanging it.
//   - Deadline propagation: a campaign with a timeout hands every sub-job
//     the remaining budget, so workers abandon orphaned work themselves
//     even if the coordinator dies before canceling it.
//
// The worker client retries 503 backpressure and transient transport errors
// with backoff; the queue sees only a lease's final outcome. Received cells
// are never re-run, and determinism makes retried or speculated cells
// indistinguishable from first-try ones. With a Store configured the
// coordinator journals merged cells like any daemon, and a restarted
// coordinator resumes a campaign the way a plain daemon does: runJob's
// neededCells drops the journaled cells, and only the rest are queued.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/core"
)

// maxDispatches bounds how many sub-job dispatches one cell may consume
// before its campaign fails: enough to walk the whole fleet twice (every
// worker gets a second chance after transient trouble), never fewer than 4
// so tiny fleets still ride out a worker restart. Speculative copies do not
// count.
func (s *Server) maxDispatches() int {
	return max(2*len(s.workers), 4)
}

// cellQueue is one campaign's dispatch state, shared by its per-worker
// dispatch loops. A delivery takes mu before the merge's lock, so a cell's
// acceptance and the queue's bookkeeping of it happen as one step.
type cellQueue struct {
	s    *Server
	m    *fleetMerge
	ctx  context.Context // the campaign's run context
	stop context.CancelFunc

	mu       sync.Mutex
	first    [][]int         // loop k's first lease; nil once taken or handed back
	pending  []int           // cells waiting for a lease, ascending
	batch    int             // most cells one lease takes from pending
	every    time.Duration   // how often an idle loop looks for a straggler
	tries    map[int]int     // non-speculative dispatches per cell
	failedOn map[int]*worker // the worker whose lease of a pending cell last failed
	leases   []*lease        // every lease of the campaign
	left     int             // needed cells not yet merged
	err      error           // the budget failure that ended the campaign
	changed  chan struct{}   // closed (and replaced) when cells are requeued
}

// lease is one batch of cells dispatched to one worker as a sub-job.
type lease struct {
	w       *worker
	cells   []int  // ascending
	done    []bool // done[i]: cells[i] was merged, through any lease
	got     int    // cells this lease's own stream delivered
	of      *lease // for a speculative copy, the lease it copies
	copied  bool   // a speculative copy of this lease is in flight
	started time.Time
	ended   time.Time // zero while the sub-job stream is open

	ctx    context.Context // canceled once every cell is merged
	cancel context.CancelFunc
}

// rate is the lease's delivery rate in cells/sec: over its whole life once
// ended, over the elapsed window while open.
func (l *lease) rate(now time.Time) float64 {
	end := l.ended
	if end.IsZero() {
		end = now
	}
	if dt := end.Sub(l.started).Seconds(); dt > 0 {
		return float64(l.got) / dt
	}
	return 0
}

// undelivered returns the lease's cells not yet merged, ascending.
func (l *lease) undelivered() []int {
	var out []int
	for i, c := range l.cells {
		if !l.done[i] {
			out = append(out, c)
		}
	}
	return out
}

// runQueue drives the needed cells through one cell queue with a dispatch
// loop per worker, and returns once every cell is merged, a cell has spent
// the dispatch budget, or ctx ends.
func (s *Server) runQueue(ctx context.Context, j *job, needed []int) error {
	q := &cellQueue{
		s: s,
		m: &fleetMerge{s: s, j: j, order: needed,
			pend: make(map[int]core.CellResult), seen: make(map[int]bool)},
		first:    make([][]int, len(s.workers)),
		batch:    (len(needed) + len(s.workers) - 1) / len(s.workers),
		every:    max(s.tuning.SpeculationAfter/8, time.Millisecond),
		tries:    make(map[int]int, len(needed)),
		failedOn: make(map[int]*worker),
		left:     len(needed),
		changed:  make(chan struct{}),
	}
	copy(q.first, splitShards(needed, len(s.workers)))
	q.ctx, q.stop = context.WithCancel(ctx)
	defer q.stop()
	var wg sync.WaitGroup
	for k, w := range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.loop(k, w)
		}()
	}
	wg.Wait()
	switch {
	case q.left == 0:
		return nil
	case q.err != nil:
		return q.err
	}
	return ctx.Err()
}

// loop is worker w's dispatch loop until the campaign ends: take a lease,
// dispatch it, release it. A loop whose worker is out of dispatch hands its
// first lease back to the queue; with nothing to take, a loop waits for
// requeued cells or its next check. After a failed lease it waits one
// check before leasing again, so a worker that fails fast does not spin.
func (q *cellQueue) loop(k int, w *worker) {
	tick := time.NewTicker(q.every)
	defer tick.Stop()
	for {
		q.mu.Lock()
		if q.ctx.Err() != nil {
			q.mu.Unlock()
			return
		}
		var l *lease
		if q.s.dispatchable(w) {
			l = q.take(k, w)
		} else if q.first[k] != nil {
			q.requeue(q.first[k])
			q.first[k] = nil
		}
		changed := q.changed
		q.mu.Unlock()
		wait := tick.C
		if l != nil {
			if !q.release(l, q.dispatch(l)) {
				continue
			}
			changed, wait = nil, time.After(q.every)
		}
		select {
		case <-q.ctx.Done():
		case <-changed:
		case <-wait:
		}
	}
}

// take leases loop k's next batch, in order of preference: its first
// lease, pending cells, or a speculative copy of a straggler. Nil when
// there is nothing to take. Callers hold q.mu.
func (q *cellQueue) take(k int, w *worker) *lease {
	now := time.Now()
	l := &lease{w: w, started: now}
	if l.cells, q.first[k] = q.first[k], nil; l.cells == nil {
		l.cells = q.fromPending(w)
	}
	if l.cells == nil {
		if l.of = q.straggler(now); l.of == nil {
			return nil
		}
		l.of.copied = true
		l.cells = l.of.undelivered()
		q.s.fleet.specs.Add(1)
		q.s.log.Info("straggler speculation", "job", q.m.j.id, "worker", w.name,
			"cells", len(l.cells))
	} else {
		retry := false
		for _, c := range l.cells {
			retry = retry || q.tries[c] > 0
			q.tries[c]++
		}
		if retry {
			q.s.fleet.retries.Add(1)
		}
	}
	l.done = make([]bool, len(l.cells))
	l.ctx, l.cancel = context.WithCancel(q.ctx)
	q.leases = append(q.leases, l)
	return l
}

// fromPending removes up to one batch of pending cells for w's loop, or
// returns nil. While another worker is dispatchable, w skips the cells its
// own lease last failed, so a retry goes to a different worker. Callers
// hold q.mu.
func (q *cellQueue) fromPending(w *worker) []int {
	avoid := slices.ContainsFunc(q.s.workers, func(o *worker) bool {
		return o != w && q.s.dispatchable(o)
	})
	var cells, rest []int
	for _, c := range q.pending {
		if len(cells) < q.batch && !(avoid && q.failedOn[c] == w) {
			cells = append(cells, c)
		} else {
			rest = append(rest, c)
		}
	}
	q.pending = rest
	return cells
}

// straggler returns an open, unfinished lease with no copy in flight that
// is at least SpeculationAfter old and delivers at most a quarter of the
// median cells/s, or nil. The median is over the campaign's first-hand
// leases that are open or whose cells are all merged: a failed lease's
// cells live on in a later lease, and copies only echo their original.
// A zero median still picks a lease that has delivered nothing, so a
// stalled lease beside a failed one is copied rather than waited out.
// Callers hold q.mu.
func (q *cellQueue) straggler(now time.Time) *lease {
	var rates []float64
	for _, l := range q.leases {
		if l.of == nil && (l.ended.IsZero() || !slices.Contains(l.done, false)) {
			rates = append(rates, l.rate(now))
		}
	}
	med := median(rates)
	for _, l := range q.leases {
		if l.ended.IsZero() && l.of == nil && !l.copied && slices.Contains(l.done, false) &&
			now.Sub(l.started) >= q.s.tuning.SpeculationAfter && l.rate(now) <= 0.25*med {
			return l
		}
	}
	return nil
}

// requeue returns cells to the pending set and wakes idle loops. Callers
// hold q.mu.
func (q *cellQueue) requeue(cells []int) {
	q.pending = slices.Concat(q.pending, cells)
	slices.Sort(q.pending)
	close(q.changed)
	q.changed = make(chan struct{})
}

// dispatch runs lease l on its worker as one sub-job, streaming its cells
// into the merge. It returns why the lease ended: the lease context's error
// once every cell is merged or the campaign is over, else the failure.
func (q *cellQueue) dispatch(l *lease) error {
	s, j, w := q.s, q.m.j, l.w
	body, err := shardBody(j.raw, l.cells, remainingTimeout(l.ctx))
	if err != nil {
		return fmt.Errorf("building sub-job body: %w", err)
	}
	s.fleet.noteDispatch(w.name)
	failed := func(err error) error {
		s.log.Warn("lease dispatch failed", "job", j.id, "worker", w.name, "err", err)
		if breakerWorthy(err) {
			s.missedBeat(w, err)
		}
		return err
	}
	sub, err := w.client.Submit(l.ctx, body)
	if err != nil {
		return failed(fmt.Errorf("worker %s: submit: %w", w.name, err))
	}
	s.log.Info("lease dispatched", "job", j.id, "worker", w.name, "sub_job", sub.ID,
		"cells", len(l.cells), "speculative", l.of != nil)
	streamErr := w.client.Stream(l.ctx, sub.ID, func(cell core.CellResult) error {
		q.deliver(l, cell)
		return nil
	})
	if l.ctx.Err() != nil {
		// Every cell landed (possibly through another lease), or the
		// campaign is over: stop the worker's sub-job rather than letting
		// it burn cycles.
		stopCtx, stop := context.WithTimeout(context.Background(), 2*time.Second)
		w.client.Cancel(stopCtx, sub.ID)
		stop()
		return l.ctx.Err()
	}
	if streamErr != nil {
		return failed(fmt.Errorf("worker %s: stream of %s: %w", w.name, sub.ID, streamErr))
	}
	// The stream ended cleanly with cells missing: the sub-job failed or was
	// canceled on the worker. The worker answered coherently throughout, so
	// this does not count against its health.
	v, err := w.client.Status(l.ctx, sub.ID)
	if err == nil {
		err = fmt.Errorf("ended %s: %s", v.Status, v.Error)
	}
	err = fmt.Errorf("worker %s: sub-job %s: %w", w.name, sub.ID, err)
	s.log.Warn("lease sub-job incomplete", "job", j.id, "worker", w.name, "err", err)
	return err
}

// deliver hands one streamed cell of lease l to the merge, where the first
// result per cell wins. An accepted cell is marked merged in every lease
// holding it; a lease with nothing left is canceled, which stops its
// stream, and the last cell ends the campaign's loops.
func (q *cellQueue) deliver(l *lease, cell core.CellResult) {
	if _, ok := slices.BinarySearch(l.cells, cell.Index); !ok {
		return // not a cell this lease asked for
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	l.got++
	if !q.m.add(cell) {
		return
	}
	if i, ok := slices.BinarySearch(q.pending, cell.Index); ok {
		q.pending = slices.Delete(q.pending, i, i+1)
	}
	for _, o := range q.leases {
		if i, ok := slices.BinarySearch(o.cells, cell.Index); ok && !o.done[i] {
			if o.done[i] = true; !slices.Contains(o.done, false) {
				o.cancel()
			}
		}
	}
	if q.left--; q.left == 0 {
		q.stop()
	}
}

// release ends lease l, which ended for reason err, and reports whether it
// failed: cells undelivered while the campaign runs. A failed copy's cells
// stay with the lease it copied, which may then be copied again. A failed
// lease's cells go back to the queue, marked as failed on its worker,
// unless one of them has spent the dispatch budget, which fails the
// campaign.
func (q *cellQueue) release(l *lease, err error) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l.ended = time.Now()
	l.cancel()
	back := l.undelivered()
	if len(back) == 0 || q.ctx.Err() != nil {
		return false
	}
	if l.of != nil {
		l.of.copied = false
		return true
	}
	for _, c := range back {
		if q.tries[c] >= q.s.maxDispatches() {
			q.err = fmt.Errorf("%d of %d cells undone after %d dispatches: %w",
				q.left, len(q.m.order), q.tries[c], err)
			q.stop()
			return false
		}
	}
	for _, c := range back {
		q.failedOn[c] = l.w
	}
	q.requeue(back)
	return true
}

// splitShards chunks the (ascending) indices into at most n contiguous,
// near-equal runs, one first lease per worker; the cell queue re-leases
// what a worker leaves. As in the sweep engine, whose workers claim cells
// by configuration, which worker runs a cell affects wall-clock only,
// never results.
func splitShards(indices []int, n int) [][]int {
	n = min(n, len(indices))
	shards := make([][]int, 0, n)
	for k := 0; k < n; k++ {
		lo, hi := k*len(indices)/n, (k+1)*len(indices)/n
		shards = append(shards, indices[lo:hi])
	}
	return shards
}

// median of a rate sample; the input slice is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// remainingTimeout converts the run context's deadline into the "timeout"
// value a sub-job should carry: the budget left right now, so a
// worker abandons orphaned work on its own schedule even if the coordinator
// never gets to cancel it. Zero (no deadline) omits the field.
func remainingTimeout(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return max(time.Until(dl).Round(time.Millisecond), time.Millisecond)
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

// cellSelector compresses an ascending, duplicate-free index list into the
// range form when it is one contiguous run — the common case for a first
// lease; a re-lease with gaps falls back to the explicit list.
func cellSelector(cells []int) *cellRange {
	if n := len(cells); n > 0 && cells[n-1]-cells[0] == n-1 {
		lo, hi := cells[0], cells[n-1]+1
		return &cellRange{Lo: &lo, Hi: &hi}
	}
	return &cellRange{List: cells}
}

// fleetMerge reassembles sub-job streams into the job's cell list in strictly
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
// race's same-index duplicate is dropped here, the only dedup on the
// delivery path — then releases the longest
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
		m.s.addCell(m.j, c)
	}
	return true
}

// fleetMetrics counts sub-job dispatches per worker, re-leases of cells
// already dispatched, and straggler speculations, for the coordinator's
// /metrics export.
type fleetMetrics struct {
	mu         sync.Mutex
	dispatched map[string]uint64
	retries    atomic.Uint64
	specs      atomic.Uint64
}

func (f *fleetMetrics) noteDispatch(worker string) {
	f.mu.Lock()
	if f.dispatched == nil {
		f.dispatched = make(map[string]uint64)
	}
	f.dispatched[worker]++
	f.mu.Unlock()
}

// snapshot copies the counters for a scrape.
func (f *fleetMetrics) snapshot() (dispatched map[string]uint64, retries, specs uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.dispatched), f.retries.Load(), f.specs.Load()
}
