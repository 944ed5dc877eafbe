package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// funcEvent adapts a func() to Handler for tests that schedule closures.
type funcEvent func()

func (f funcEvent) OnEvent(Time, uint64) { f() }

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.ScheduleEvent(10, funcEvent(func() { got = append(got, 1) }), 0)
	k.ScheduleEvent(5, funcEvent(func() { got = append(got, 0) }), 0)
	k.ScheduleEvent(10, funcEvent(func() { got = append(got, 2) }), 0) // same time: FIFO by seq
	k.ScheduleEvent(20, funcEvent(func() { got = append(got, 3) }), 0)
	k.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %d, want 20", k.Now())
	}
}

func TestKernelZeroDelay(t *testing.T) {
	k := NewKernel()
	order := []string{}
	k.ScheduleEvent(0, funcEvent(func() {
		order = append(order, "a")
		k.ScheduleEvent(0, funcEvent(func() { order = append(order, "c") }), 0)
	}), 0)
	k.ScheduleEvent(0, funcEvent(func() { order = append(order, "b") }), 0)
	k.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits int
	var rec func(depth int)
	rec = func(depth int) {
		hits++
		if depth < 10 {
			k.ScheduleEvent(1, funcEvent(func() { rec(depth + 1) }), 0)
		}
	}
	k.ScheduleEvent(0, funcEvent(func() { rec(0) }), 0)
	k.Run()
	if hits != 11 {
		t.Fatalf("hits = %d, want 11", hits)
	}
	if k.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", k.Now())
	}
}

func TestKernelPastPanics(t *testing.T) {
	k := NewKernel()
	k.ScheduleEvent(10, funcEvent(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.AtEvent(5, funcEvent(func() {}), 0)
	}), 0)
	k.Run()
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	var count int
	for i := Time(1); i <= 10; i++ {
		k.AtEvent(i, funcEvent(func() {
			count++
			if count == 3 {
				k.Stop()
			}
		}), 0)
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
	k.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d, want 10 after resume", count)
	}
}

func TestKernelRunLimit(t *testing.T) {
	k := NewKernel()
	for i := Time(0); i < 10; i++ {
		k.AtEvent(i, funcEvent(func() {}), 0)
	}
	if n := k.RunLimit(4); n != 4 {
		t.Fatalf("RunLimit ran %d, want 4", n)
	}
	if n := k.RunLimit(100); n != 6 {
		t.Fatalf("RunLimit ran %d, want 6", n)
	}
}

// Property: for any set of (time, id) pairs, the kernel dispatches them
// sorted by time with stable order for equal times.
func TestKernelOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		type rec struct {
			when Time
			seq  int
		}
		var got []rec
		for i, d := range delays {
			d := Time(d)
			i := i
			k.AtEvent(d, funcEvent(func() { got = append(got, rec{d, i}) }), 0)
		}
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].when > got[i].when {
				return false
			}
			if got[i-1].when == got[i].when && got[i-1].seq > got[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromNs(20) != 100 {
		t.Errorf("FromNs(20) = %d, want 100", FromNs(20))
	}
	if FromNs(0.2) != 1 {
		t.Errorf("FromNs(0.2) = %d, want 1", FromNs(0.2))
	}
	if FromNs(0.3) != 2 { // rounds up
		t.Errorf("FromNs(0.3) = %d, want 2", FromNs(0.3))
	}
	if got := Time(100).Ns(); got != 20 {
		t.Errorf("Time(100).Ns() = %v, want 20", got)
	}
	if got := Time(5e9).Seconds(); got != 1 {
		t.Errorf("Time(5e9).Seconds() = %v, want 1", got)
	}
}

// randRecorder is a typed handler that records its dispatches and keeps a
// randomized self-perpetuating schedule going, exercising same-cycle ties,
// cascades, and overflow-heap territory.
type randRecorder struct {
	k     *Kernel
	rng   *Rand
	trace []recEvent
	left  int
}

type recEvent struct {
	when Time
	data uint64
}

func (r *randRecorder) OnEvent(now Time, data uint64) {
	r.trace = append(r.trace, recEvent{now, data})
	if r.left <= 0 {
		return
	}
	r.left--
	// A burst of follow-on events across all wheel spans, with deliberate
	// same-cycle ties.
	n := 1 + r.rng.Intn(3)
	for i := 0; i < n; i++ {
		var delay Time
		switch r.rng.Intn(5) {
		case 0:
			delay = 0
		case 1:
			delay = Time(r.rng.Intn(256))
		case 2:
			delay = Time(r.rng.Intn(1 << 16))
		case 3:
			delay = Time(r.rng.Intn(1 << 24))
		default:
			delay = Time(r.rng.Intn(1 << 26)) // past the wheel horizon
		}
		r.k.ScheduleEvent(delay, r, r.rng.Uint64()%1000)
	}
}

func seedRecorder(k *Kernel, seed uint64, left int) *randRecorder {
	r := &randRecorder{k: k, rng: NewRand(seed), left: left}
	for i := 0; i < 8; i++ {
		k.ScheduleEvent(Time(r.rng.Intn(1<<20)), r, uint64(i))
	}
	return r
}

// TestKernelResetMatchesFresh pins that a Reset kernel behaves exactly like a
// new one over a randomized schedule.
func TestKernelResetMatchesFresh(t *testing.T) {
	dirty := NewKernel()
	seedRecorder(dirty, 11, 200)
	for i := 0; i < 500; i++ {
		dirty.Step()
	}
	dirty.Reset()
	if dirty.Now() != 0 || dirty.Pending() != 0 || dirty.Executed() != 0 {
		t.Fatalf("Reset left state: now=%d pending=%d executed=%d", dirty.Now(), dirty.Pending(), dirty.Executed())
	}

	fresh := NewKernel()
	rd := seedRecorder(dirty, 13, 300)
	rf := seedRecorder(fresh, 13, 300)
	dirty.Run()
	fresh.Run()
	if !reflect.DeepEqual(rd.trace, rf.trace) {
		t.Fatal("reset kernel diverges from fresh kernel")
	}
}

// burstRecorder records its dispatches; every event whose data is a multiple
// of 7 spawns a burst of more than three chunks over the next three cycles,
// so bucket FIFOs are routinely partway through a chunk.
type burstRecorder struct {
	k     *Kernel
	trace []recEvent
	left  int
	next  uint64
}

func (r *burstRecorder) OnEvent(now Time, data uint64) {
	r.trace = append(r.trace, recEvent{now, data})
	if r.left <= 0 {
		return
	}
	r.left--
	n := 1
	if data%7 == 0 {
		n = 3*chunkCap + 2
	}
	for i := 0; i < n; i++ {
		r.next++
		r.k.ScheduleEvent(Time(r.next%3), r, r.next)
	}
}

func seedBursts(k *Kernel, left int) *burstRecorder {
	r := &burstRecorder{k: k, left: left, next: 100}
	for i := uint64(0); i < 3*chunkCap; i++ {
		k.ScheduleEvent(Time(i%2), r, i)
	}
	k.ScheduleEvent(span1+5, r, 7) // a level-2 resident across the cut
	return r
}

// TestKernelResetPartialChunks resets a burst-heavy run at points that leave
// buckets partway through a chunk, and once with events resident at levels 1
// and 2 and in the overflow heap, and requires the reset kernel to then
// behave like a new one.
func TestKernelResetPartialChunks(t *testing.T) {
	oracle := NewKernel()
	or := seedBursts(oracle, 60)
	oracle.Run()
	for _, cut := range []int{1, chunkCap / 2, chunkCap + 1, 2*chunkCap + 3, len(or.trace) / 2, len(or.trace) - 1} {
		k := NewKernel()
		seedBursts(k, 60)
		if n := k.RunLimit(uint64(cut)); n != uint64(cut) {
			t.Fatalf("cut %d: kernel drained after %d events", cut, n)
		}
		k.Reset()
		if k.Pending() != 0 || k.Now() != 0 {
			t.Fatalf("cut %d: Reset left pending=%d now=%d", cut, k.Pending(), k.Now())
		}
		again := seedBursts(k, 60)
		k.Run()
		if !reflect.DeepEqual(again.trace, or.trace) {
			t.Fatalf("cut %d: reset kernel diverges from a fresh one", cut)
		}
	}

	// Reset with events resident at every level and in the overflow heap:
	// several buckets per level, one spanning chunks at each level.
	seedDeep := func(k *Kernel) *burstRecorder {
		r := seedBursts(k, 60)
		for i := 0; i < chunkCap+2; i++ {
			for _, at := range []Time{span0 + 3, 9 * span0, span1 + 5, 7 * span1, span2 + 9, 3*span2 + 1} {
				k.AtEvent(at, r, uint64(at)+uint64(i))
			}
		}
		return r
	}
	deep := NewKernel()
	want := seedDeep(deep)
	deep.Run()
	k := NewKernel()
	seedDeep(k)
	k.RunLimit(5)
	for level := 1; level < wheelLevels; level++ {
		if _, ok := firstSet(&k.levels[level].occ); !ok {
			t.Fatalf("deep cut: nothing resident at level %d", level)
		}
	}
	if len(k.overflow) == 0 {
		t.Fatal("deep cut: nothing resident in the overflow heap")
	}
	k.Reset()
	for level := range k.levels {
		lv := &k.levels[level]
		if _, ok := firstSet(&lv.occ); ok {
			t.Fatalf("deep cut: Reset left level %d occupied", level)
		}
		for idx := range lv.buckets {
			if lv.buckets[idx].head != nil {
				t.Fatalf("deep cut: Reset left chunks in level %d bucket %d", level, idx)
			}
		}
	}
	if k.Pending() != 0 || len(k.overflow) != 0 {
		t.Fatalf("deep cut: Reset left pending=%d overflow=%d", k.Pending(), len(k.overflow))
	}
	for c := k.free; c != nil; c = c.next {
		for _, s := range c.ev {
			if s.h != nil {
				t.Fatal("deep cut: a pooled chunk still holds a handler")
			}
		}
	}
	again := seedDeep(k)
	k.Run()
	if !reflect.DeepEqual(again.trace, want.trace) {
		t.Fatal("deep cut: reset kernel diverges from a fresh one")
	}
}

// tailEvent is a distinct, pointer-identified handler for TestKernelTailIs.
type tailEvent struct{ ran int }

func (e *tailEvent) OnEvent(Time, uint64) { e.ran++ }

// TestKernelTailIs pins the coalescing query: it names the last event
// appended to a level-0 bucket, and reports false for a displaced tail, for
// a timestamp outside the level-0 window, for a drained bucket, and after
// Reset. CountExecuted folds coalesced events into Executed.
func TestKernelTailIs(t *testing.T) {
	k := NewKernel()
	a, b := &tailEvent{}, &tailEvent{}
	if k.TailIs(5, a) {
		t.Fatal("empty bucket reports a tail")
	}
	k.ScheduleEvent(5, a, 0)
	if !k.TailIs(5, a) || k.TailIs(5, b) || k.TailIs(6, a) {
		t.Fatal("TailIs does not name the one event in bucket 5")
	}
	k.ScheduleEvent(5, b, 0)
	if k.TailIs(5, a) || !k.TailIs(5, b) {
		t.Fatal("a later append did not displace the tail")
	}
	// Fill a bucket past one chunk so its tail lives in a later chunk.
	for i := 0; i < chunkCap; i++ {
		k.ScheduleEvent(7, b, 0)
	}
	k.ScheduleEvent(7, a, 0)
	if !k.TailIs(7, a) {
		t.Fatal("TailIs misses the tail of a multi-chunk bucket")
	}
	// span0 is the first timestamp past the level-0 window at base 0; the
	// event lands in level 1.
	k.ScheduleEvent(span0, a, 0)
	if k.TailIs(span0, a) {
		t.Fatal("TailIs reports a tail outside the level-0 window")
	}
	if k.TailIs(span0-1, a) || k.TailIs(span0-1, b) {
		t.Fatal("the empty last bucket of the window reports a tail")
	}
	if k.RunLimit(2) != 2 {
		t.Fatal("RunLimit(2) did not run bucket 5's two events")
	}
	if k.TailIs(5, b) || k.TailIs(5, a) {
		t.Fatal("a drained bucket reports a tail")
	}
	if k.Executed() != 2 {
		t.Fatalf("Executed = %d after two dispatches, want 2", k.Executed())
	}
	k.CountExecuted(3)
	if k.Executed() != 5 {
		t.Fatalf("Executed = %d after CountExecuted(3), want 5", k.Executed())
	}
	k.Reset()
	if k.TailIs(7, a) || k.Executed() != 0 {
		t.Fatal("Reset kept a bucket tail or the executed count")
	}
	k.ScheduleEvent(7, a, 0)
	if !k.TailIs(7, a) {
		t.Fatal("a reset kernel does not report a new tail")
	}
}

// countHandler counts its dispatches. It is too large for the runtime's
// tiny-object allocator, which would let a neighbour keep it alive.
type countHandler struct {
	n int
	_ [2]uint64
}

func (h *countHandler) OnEvent(Time, uint64) { h.n++ }

// scheduleSpread schedules n events for h on every tier: a same-cycle
// burst over several chunks, level-1 and level-2 buckets, and the overflow
// heap.
func scheduleSpread(k *Kernel, h Handler, n int) {
	for i := 0; i < n; i++ {
		for _, d := range []Time{5, span0 + 3, span1 + 7, 2 * span2} {
			k.ScheduleEvent(d, h, uint64(i))
		}
	}
}

// TestKernelReleasesHandlers checks that a kernel, which a pooled machine
// keeps across runs, holds no reference to a handler whose events have all
// run, nor — after Reset — to one whose events were still queued.
func TestKernelReleasesHandlers(t *testing.T) {
	k := NewKernel()
	ran := scheduleAndForget(k, func() { k.Run() })
	if !collected(ran) {
		t.Error("the kernel keeps a handler whose events have all run")
	}
	queued := scheduleAndForget(k, func() { k.RunLimit(chunkCap + 2) }) // stop partway through the burst
	k.Reset()
	if !collected(queued) {
		t.Error("the kernel keeps a handler whose events Reset dropped")
	}
	runtime.KeepAlive(k)
}

// scheduleAndForget schedules events on every tier for a new handler, calls
// run, and returns a channel closed once the handler is garbage collected.
func scheduleAndForget(k *Kernel, run func()) <-chan struct{} {
	h := &countHandler{}
	freed := make(chan struct{})
	runtime.SetFinalizer(h, func(*countHandler) { close(freed) })
	scheduleSpread(k, h, 3*chunkCap)
	run()
	return freed
}

// collected runs a garbage collection and reports whether the object whose
// finalizer closes freed was collected, waiting for the finalizer to run.
func collected(freed <-chan struct{}) bool {
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	select {
	case <-freed:
		return true
	case <-ctx.Done():
		return false
	}
}
