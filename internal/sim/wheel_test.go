package sim

import (
	"container/heap"
	"sync"
	"testing"
)

// refEvent / refKernel reimplement the seed's container/heap scheduler as the
// ordering oracle for the time-wheel kernel: dispatch strictly by (when, seq).
type refEvent struct {
	when Time
	seq  uint64
	id   uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refKernel struct {
	pq  refHeap
	now Time
	seq uint64
}

func (r *refKernel) schedule(d Time, id uint64) {
	r.seq++
	heap.Push(&r.pq, refEvent{when: r.now + d, seq: r.seq, id: id})
}

func (r *refKernel) step() (refEvent, bool) {
	if len(r.pq) == 0 {
		return refEvent{}, false
	}
	e := heap.Pop(&r.pq).(refEvent)
	r.now = e.when
	return e, true
}

// delayMix spans every kernel tier: same-cycle ties, level-0/1/2 wheel
// buckets, and overflow-heap territory beyond the 2^24-cycle horizon.
var delayMix = []Time{
	0, 0, 1, 2, 3, 5, 17, 100,
	span0 - 1, span0, span0 + 1, 3 * span0,
	span1 - 1, span1, span1 + 1, 7 * span1,
	span2 - 1, span2, span2 + 1, 3 * span2,
}

// childDelays decides, purely from an event's id, which child events it
// schedules while running — so the wheel driver and the reference oracle make
// identical nested-scheduling decisions as long as dispatch order agrees.
func childDelays(id, budget uint64) []Time {
	if id%4 != 0 || budget == 0 {
		return nil
	}
	n := len(delayMix)
	return []Time{delayMix[(id*13)%uint64(n)], delayMix[(id*29)%uint64(n)], 0}
}

// burstChildren makes same-cycle bursts the common case for the chunked
// bucket FIFOs: every 16th event spawns a burst of more than three chunks
// one cycle out, and others spawn zero-delay children interleaved with
// short and next-window delays. It never spawns more than budget children.
func burstChildren(id, budget uint64) []Time {
	var kids []Time
	switch {
	case id%16 == 0:
		for i := 0; i < 3*chunkCap+2; i++ {
			kids = append(kids, 1)
		}
	case id%3 == 0:
		kids = []Time{0, 2, 0}
	case id%5 == 0:
		kids = []Time{span0 + 3, 0}
	}
	if uint64(len(kids)) > budget {
		kids = kids[:budget]
	}
	return kids
}

// diffDriver runs the wheel side of the differential test: every dispatched
// event records (when, id) and schedules its children.
type diffDriver struct {
	k      *Kernel
	got    []refEvent
	nextID uint64
	budget uint64 // remaining child spawns, to terminate the cascade
	// children picks an event's child delays; nil means childDelays.
	children func(id, budget uint64) []Time
	// stop, when set, picks the events that call Stop once they have run.
	stop func(id uint64) bool
	// t, when set, checks the kernel's window invariant in every event.
	t *testing.T
}

func (d *diffDriver) OnEvent(now Time, id uint64) {
	if d.t != nil {
		checkWindow(d.t, d.k)
	}
	d.got = append(d.got, refEvent{when: now, id: id})
	if d.stop != nil && d.stop(id) {
		defer d.k.Stop()
	}
	children := d.children
	if children == nil {
		children = childDelays
	}
	for _, delay := range children(id, d.budget) {
		d.budget--
		d.k.ScheduleEvent(delay, d, d.nextID)
		d.nextID++
	}
}

// refDriver mirrors diffDriver's decisions on the oracle.
type refDriver struct {
	r        *refKernel
	got      []refEvent
	nextID   uint64
	budget   uint64
	children func(id, budget uint64) []Time
}

func (d *refDriver) dispatch(e refEvent) {
	d.got = append(d.got, refEvent{when: e.when, id: e.id})
	children := d.children
	if children == nil {
		children = childDelays
	}
	for _, delay := range children(e.id, d.budget) {
		d.budget--
		cid := d.nextID
		d.nextID++
		d.r.schedule(delay, cid)
	}
}

// checkWindow asserts the kernel's window invariant: the clock lies in the
// level-0 window, and every overflow resident lies at or past the end of
// the current level-2 span, so dispatch never needs the heap before the
// wheel drains.
func checkWindow(t *testing.T, k *Kernel) {
	t.Helper()
	if k.now < k.base || k.now-k.base >= span0 {
		t.Fatalf("clock %d outside the level-0 window [%d, %d)", k.now, k.base, k.base+span0)
	}
	horizon := (k.base &^ (span2 - 1)) + span2
	for _, e := range k.overflow {
		if e.when < horizon {
			t.Fatalf("overflow holds t=%d, before the level-2 span's end %d (base %d)", e.when, horizon, k.base)
		}
	}
}

func compareDispatch(t *testing.T, trial int, got, want []refEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: wheel dispatched %d events, reference %d", trial, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].when != want[i].when {
			t.Fatalf("trial %d: dispatch diverges at %d: wheel (t=%d id=%d), reference (t=%d id=%d)",
				trial, i, got[i].when, got[i].id, want[i].when, want[i].id)
		}
	}
}

// TestWheelMatchesHeapKernel drives the wheel kernel and the reference heap
// kernel over identical randomized schedules — same-cycle ties, overflow
// bucket refills, events scheduled from inside running events — and asserts
// identical dispatch order, with the window invariant holding in every event
// and after the run.
func TestWheelMatchesHeapKernel(t *testing.T) {
	rng := NewRand(20080613)
	for trial := 0; trial < 40; trial++ {
		k := NewKernel()
		ref := &refKernel{}
		wd := &diffDriver{k: k, budget: 300, t: t}
		rd := &refDriver{r: ref, budget: 300}

		seed := 100 + rng.Intn(150)
		for i := 0; i < seed; i++ {
			d := delayMix[rng.Intn(len(delayMix))]
			k.ScheduleEvent(d, wd, wd.nextID)
			ref.schedule(d, rd.nextID)
			wd.nextID++
			rd.nextID++
		}

		k.Run()
		checkWindow(t, k)
		for {
			e, ok := ref.step()
			if !ok {
				break
			}
			rd.dispatch(e)
		}
		compareDispatch(t, trial, wd.got, rd.got)
		if k.Now() != ref.now {
			t.Fatalf("trial %d: final clock %d, reference %d", trial, k.Now(), ref.now)
		}
		if k.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, k.Pending())
		}
	}
}

// TestWheelChunkBurstsMatchHeap drives the bucket FIFOs across chunk
// boundaries: seeded same-cycle bursts of over three chunks, burst-spawning
// events, and zero-delay children appended to the bucket being drained, all
// checked against the reference heap's (when, seq) order.
func TestWheelChunkBurstsMatchHeap(t *testing.T) {
	rng := NewRand(20081016)
	for trial := 0; trial < 30; trial++ {
		k := NewKernel()
		ref := &refKernel{}
		wd := &diffDriver{k: k, budget: 2000, children: burstChildren}
		rd := &refDriver{r: ref, budget: 2000, children: burstChildren}
		schedule := func(d Time) {
			k.ScheduleEvent(d, wd, wd.nextID)
			ref.schedule(d, rd.nextID)
			wd.nextID++
			rd.nextID++
		}
		// A burst of 3*chunkCap+1..3*chunkCap+chunkCap events on one cycle,
		// interleaved with events on the neighbouring cycles.
		at := Time(rng.Intn(300))
		for i := 0; i < 3*chunkCap+1+rng.Intn(chunkCap); i++ {
			schedule(at)
			if i%5 == 0 {
				schedule(at + 1)
			}
		}
		for i := 0; i < 20; i++ {
			schedule(delayMix[rng.Intn(len(delayMix))])
		}

		k.Run()
		for {
			e, ok := ref.step()
			if !ok {
				break
			}
			rd.dispatch(e)
		}
		compareDispatch(t, trial, wd.got, rd.got)
		if k.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, k.Pending())
		}
	}
}

// TestRunLimitDrainMatchesHeap drives the bucket-draining RunLimit in
// batches of random size, with events that call Stop — most often partway
// through a same-cycle burst — and checks its dispatch order against the
// reference heap, each batch's count against the events it ran, that a
// batch ends early only on a Stop or an empty queue, and the window
// invariant in every event and after every batch.
func TestRunLimitDrainMatchesHeap(t *testing.T) {
	rng := NewRand(19)
	midBucket := 0
	for trial := 0; trial < 40; trial++ {
		children := childDelays
		if trial%2 == 1 {
			children = burstChildren
		}
		k := NewKernel()
		ref := &refKernel{}
		wd := &diffDriver{k: k, budget: 1500, children: children,
			stop: func(id uint64) bool { return id%7 == 3 }, t: t}
		rd := &refDriver{r: ref, budget: 1500, children: children}
		for i := 0; i < 60+rng.Intn(100); i++ {
			d := delayMix[rng.Intn(len(delayMix))]
			if i%3 == 0 {
				d = Time(rng.Intn(4)) // same-cycle bursts from the start
			}
			k.ScheduleEvent(d, wd, wd.nextID)
			ref.schedule(d, rd.nextID)
			wd.nextID++
			rd.nextID++
		}
		for k.Pending() > 0 {
			before, executed := len(wd.got), k.Executed()
			limit := uint64(1 + rng.Intn(3*chunkCap))
			n := k.RunLimit(limit)
			checkWindow(t, k)
			ran := uint64(len(wd.got) - before)
			if n != ran || k.Executed()-executed != ran || n == 0 || n > limit {
				t.Fatalf("trial %d: RunLimit(%d) returned %d, ran %d events, Executed moved %d",
					trial, limit, n, ran, k.Executed()-executed)
			}
			for _, e := range wd.got[before : len(wd.got)-1] {
				if e.id%7 == 3 {
					t.Fatalf("trial %d: RunLimit(%d) ran on past event %d's Stop", trial, limit, e.id)
				}
			}
			if last := wd.got[len(wd.got)-1].id; n < limit && k.Pending() > 0 && last%7 != 3 {
				t.Fatalf("trial %d: RunLimit(%d) stopped after %d events with %d pending and no Stop",
					trial, limit, n, k.Pending())
			}
			// The clock lies in the window, so its level-0 bucket holds
			// only events for the current timestamp.
			if k.levels[0].buckets[int(k.Now())&wheelMask].head != nil {
				midBucket++
			}
		}
		for {
			e, ok := ref.step()
			if !ok {
				break
			}
			rd.dispatch(e)
		}
		compareDispatch(t, trial, wd.got, rd.got)
		if k.Now() != ref.now {
			t.Fatalf("trial %d: final clock %d, reference %d", trial, k.Now(), ref.now)
		}
	}
	if midBucket == 0 {
		t.Fatal("no batch ended partway through a timestamp's events")
	}
}

// TestWheelBucketRefillMidChunk stops dispatch partway through a bucket —
// mid-chunk, and again once the bucket is fully drained and its chunks are
// back in the pool — and refills the current cycle from outside. Refilled
// events must run after everything already queued for the cycle, in order.
func TestWheelBucketRefillMidChunk(t *testing.T) {
	k := NewKernel()
	s := &stopAfter{k: k, limit: chunkCap / 2}
	const first = chunkCap + 3 // spans two chunks
	for i := 0; i < first; i++ {
		k.ScheduleEvent(10, s, uint64(i))
	}
	k.Run()
	if k.Now() != 10 || len(s.got) != chunkCap/2 {
		t.Fatalf("stopped after %d events at t=%d, want %d at t=10", len(s.got), k.Now(), chunkCap/2)
	}
	// Mid-chunk refill: append behind the remaining events of the cycle.
	next := uint64(first)
	for i := 0; i < 2*chunkCap; i++ {
		k.ScheduleEvent(0, s, next)
		next++
	}
	s.limit = int(next) // drain the bucket exactly
	k.Run()
	// Drained bucket: its chunks are pooled; refill the same cycle again.
	if k.Now() != 10 || k.Pending() != 0 {
		t.Fatalf("after draining: t=%d pending=%d, want t=10 and none", k.Now(), k.Pending())
	}
	for i := 0; i < chunkCap+1; i++ {
		k.ScheduleEvent(0, s, next)
		next++
	}
	k.ScheduleEvent(1, s, next)
	next++
	s.limit = 0
	k.Run()
	if len(s.got) != int(next) {
		t.Fatalf("dispatched %d events, want %d", len(s.got), next)
	}
	for i, id := range s.got {
		if id != uint64(i) {
			t.Fatalf("dispatch %d is event %d, want %d (same-cycle FIFO across refills)", i, id, i)
		}
	}
	if k.Now() != 11 {
		t.Fatalf("final clock %d, want 11", k.Now())
	}
}

// stopAfter stops the kernel from inside an event, mid-cycle: events for the
// same cycle must stay queued and resume in FIFO order.
type stopAfter struct {
	k     *Kernel
	got   []uint64
	limit int
}

func (s *stopAfter) OnEvent(_ Time, data uint64) {
	s.got = append(s.got, data)
	if len(s.got) == s.limit {
		s.k.Stop()
	}
}

func TestWheelStopMidCycle(t *testing.T) {
	k := NewKernel()
	s := &stopAfter{k: k, limit: 3}
	// Five events on one cycle, two more a cycle later.
	for i := 0; i < 5; i++ {
		k.ScheduleEvent(10, s, uint64(i))
	}
	k.ScheduleEvent(11, s, 5)
	k.ScheduleEvent(11, s, 6)
	k.Run()
	if len(s.got) != 3 || k.Now() != 10 {
		t.Fatalf("stopped after %d events at t=%d, want 3 at t=10", len(s.got), k.Now())
	}
	if k.Pending() != 4 {
		t.Fatalf("pending = %d after mid-cycle stop, want 4", k.Pending())
	}
	k.Run()
	want := []uint64{0, 1, 2, 3, 4, 5, 6}
	if len(s.got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(s.got), len(want))
	}
	for i, id := range want {
		if s.got[i] != id {
			t.Fatalf("dispatch order %v, want %v (same-cycle FIFO across Stop)", s.got, want)
		}
	}
}

// reuseHandler exercises the chunk pool as components do: every dispatch
// immediately schedules again, so chunks released by drained buckets are
// reused while events are still running.
type reuseHandler struct {
	k    *Kernel
	left int
}

func (h *reuseHandler) OnEvent(_ Time, data uint64) {
	if h.left == 0 {
		return
	}
	h.left--
	// Mixed fan-out keeps several pooled chunks in flight at once.
	h.k.ScheduleEvent(1+Time(data%7), h, data*2654435761+1)
	if data%3 == 0 {
		h.k.ScheduleEvent(span1+Time(data%97), h, data+1)
	}
}

// TestWheelFreeListRace runs independent kernels concurrently under the race
// detector: the chunk pool is per-kernel state, so hammering many kernels at
// once must show no sharing. (go test -race is the point of this test; it
// still verifies pool-reuse bookkeeping without the detector.)
func TestWheelFreeListRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := NewKernel()
			h := &reuseHandler{k: k, left: 20000}
			for i := 0; i < 32; i++ {
				k.ScheduleEvent(Time(i%5), h, uint64(g*1000+i))
			}
			k.Run()
			if k.Pending() != 0 {
				t.Errorf("goroutine %d: %d events pending after Run", g, k.Pending())
			}
			if k.Executed() == 0 {
				t.Errorf("goroutine %d: no events executed", g)
			}
		}(g)
	}
	wg.Wait()
}
