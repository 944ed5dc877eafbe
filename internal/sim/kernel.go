// Package sim provides the deterministic discrete-event simulation kernel
// used by every Corona subsystem model.
//
// Simulated time is measured in processor clock cycles at 5 GHz (the Corona
// core frequency, Table 1 of the paper), so one cycle is 0.2 ns. Components
// schedule work at absolute or relative times; the kernel executes it in
// time order, breaking ties by scheduling order so that runs are fully
// deterministic for a given seed.
//
// The scheduler is a hierarchical time wheel (calendar queue) with an
// overflow heap. The clock always lies in the level-0 window of 256
// one-cycle buckets, and the heap holds only events beyond the wheel's
// 2^24-cycle horizon, so events dispatch from the wheel alone; the heap
// refills it when dispatch rolls past the horizon. Every wheel bucket is a
// FIFO of event values held in fixed-size chunks drawn from a per-kernel
// free list: a level-0 bucket holds exactly one timestamp, so dispatch reads
// its events sequentially from one chunk after another, and steady-state
// scheduling allocates nothing. Both ScheduleEvent and Step are O(1) for the
// near-future events that dominate cycle-accurate models. Every event is a
// typed Handler plus a data word. The layout, the ordering guarantee, and
// its measured cost are documented in docs/PERFORMANCE.md.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a simulation timestamp in 5 GHz clock cycles.
type Time uint64

// Cycle durations and conversions.
const (
	// CyclesPerNs is the number of 5 GHz cycles in one nanosecond.
	CyclesPerNs = 5
	// NsPerCycle is the duration of one cycle in nanoseconds.
	NsPerCycle = 0.2
)

// Ns converts a cycle count to nanoseconds.
func (t Time) Ns() float64 { return float64(t) * NsPerCycle }

// Seconds converts a cycle count to seconds.
func (t Time) Seconds() float64 { return float64(t) * 0.2e-9 }

// FromNs converts nanoseconds to cycles, rounding up so that latencies are
// never under-modelled.
func FromNs(ns float64) Time {
	c := ns * CyclesPerNs
	t := Time(c)
	if float64(t) < c {
		t++
	}
	return t
}

// Handler is the typed event target: the kernel's zero-allocation fast path.
// Implementations are small pointer-shaped types (typically a named type over
// the component struct), so storing one in the interface does not allocate;
// the uint64 data word carries the event's packed operands (cluster ids, slot
// indices from Slots, sizes).
type Handler interface {
	// OnEvent runs the event at simulation time now with the data word it was
	// scheduled with.
	OnEvent(now Time, data uint64)
}

// event is one scheduled event.
type event struct {
	when Time
	h    Handler
	data uint64
}

// slot is an event as a bucket FIFO holds it. A level-0 bucket holds exactly
// one timestamp, so its slots need no other; level-1 and level-2 buckets
// keep each slot's timestamp in the chunk's parallel when array.
type slot struct {
	h    Handler
	data uint64
}

// chunkCap is the number of events per chunk, and chunkSlab the number of
// chunks the pool allocates at once: a chunk (its link plus chunkCap 24-byte
// slots and 8-byte timestamps) is 488 bytes, and a slab of 16 fills 7808 of
// the runtime's 8 KiB allocation size class. Pooled kernels keep their peak
// chunk count and a sparse bucket still holds a whole chunk, so small chunks
// keep memory near what the events themselves need; slabs keep the pool's
// growth to one allocation per 16 chunks.
const (
	chunkCap  = 15
	chunkSlab = 16
)

// chunk is one fixed-size block of a bucket FIFO. Chunks are allocated in
// slabs per kernel and recycled through its free list; next links a bucket's
// chunks in FIFO order, and the free list when pooled. Dispatch from level 0
// reads only ev, sequentially; when is written and read at levels 1 and 2.
type chunk struct {
	next *chunk
	ev   [chunkCap]slot
	when [chunkCap]Time
}

// fifo is one wheel bucket: events appended at w in the tail chunk and
// consumed from r in the head chunk, so same-timestamp order is append
// order. The zero value is an empty bucket holding no chunk.
type fifo struct {
	head, tail *chunk
	r, w       int32
}

// Wheel geometry: three levels of 256 power-of-two cycle buckets. Level L
// buckets are 256^L cycles wide, so the wheel spans 2^24 cycles (~3.4 ms of
// simulated time) before the overflow heap takes over.
const (
	wheelBits   = 8
	wheelSize   = 1 << wheelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 3

	span0 = Time(1) << wheelBits       // level-0 window: 256 one-cycle buckets
	span1 = Time(1) << (2 * wheelBits) // level-1 span: 256 buckets of 256 cycles
	span2 = Time(1) << (3 * wheelBits) // level-2 span: 256 buckets of 65536 cycles
)

// wheelLevel is one ring of buckets plus an occupancy bitmap used to find the
// next non-empty bucket in a handful of word operations.
type wheelLevel struct {
	buckets [wheelSize]fifo
	occ     [wheelSize / 64]uint64
}

// heapEvent is an overflow-heap resident: the event plus its scheduling
// sequence number, which breaks same-timestamp ties in the heap. The wheel
// needs no sequence number — its FIFOs keep append order.
type heapEvent struct {
	event
	seq uint64
}

// Kernel is a discrete-event scheduler. The zero value is not usable; create
// one with NewKernel. A Kernel (including its chunk pool) is confined to one
// goroutine; independent kernels on separate goroutines share nothing.
type Kernel struct {
	now     Time
	seq     uint64
	stopped bool
	// executed counts events dispatched, for introspection and test limits.
	executed uint64

	// base is the start of the level-0 window, always span0-aligned. The
	// level-1 and level-2 spans containing it are base &^ (span1-1) and
	// base &^ (span2-1). Only advance moves it, and only dispatch (which
	// then sets the clock inside the new window) calls advance, so
	// base <= now < base+span0 whenever a handler runs or the kernel is
	// idle between calls.
	base    Time
	levels  [wheelLevels]wheelLevel
	pending int // events resident in the wheel levels and the overflow heap
	// cur0 is the level-0 occupancy scan cursor: every occ word below it is
	// empty, so dispatch scans start there instead of at word zero. RunLimit
	// raises it (events cannot be scheduled before the clock, which dispatch
	// has advanced to the found bucket); it resets to zero whenever base moves.
	cur0 int

	// overflow holds only events at or past the end of the current level-2
	// span (the wheel's 2^24-cycle horizon), ordered by (when, seq); it
	// refills the wheel when dispatch rolls past the horizon.
	overflow []heapEvent

	// free heads the list of pooled chunks, reused by every bucket.
	free *chunk
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of scheduled, not-yet-executed kernel events; a
// coalesced run is one.
func (k *Kernel) Pending() int { return k.pending }

// Executed returns the number of events dispatched so far, counting each
// member of a coalesced run (CountExecuted) as one event.
func (k *Kernel) Executed() uint64 { return k.executed }

// TailIs reports whether the last event appended to the level-0 bucket for
// time t has handler h. A component that coalesces runs of same-timestamp
// events uses it to fold a new member into its run event: while that event
// is still its bucket's tail, the member holds exactly the FIFO position an
// event of its own would take. TailIs reports false when t lies outside the
// level-0 window or the bucket is empty.
func (k *Kernel) TailIs(t Time, h Handler) bool {
	if t-k.base >= span0 {
		return false
	}
	f := &k.levels[0].buckets[int(t)&wheelMask]
	return f.tail != nil && f.tail.ev[f.w-1].h == h
}

// CountExecuted adds n to Executed: a handler whose one dispatch runs a
// coalesced run of n+1 logical events reports the n it folded in, so
// Executed keeps counting logical events.
func (k *Kernel) CountExecuted(n uint64) { k.executed += n }

// ScheduleEvent runs h.OnEvent(now, data) after delay cycles (possibly zero,
// meaning "later this cycle", after already-queued events for the current
// time). Same-cycle events run in scheduling order.
func (k *Kernel) ScheduleEvent(delay Time, h Handler, data uint64) {
	k.AtEvent(k.now+delay, h, data)
}

// AtEvent runs h.OnEvent(t, data) at absolute time t. It panics on a nil
// handler or a past timestamp: silent time travel corrupts causality in
// queue models.
func (k *Kernel) AtEvent(t Time, h Handler, data uint64) {
	if h == nil || t < k.now {
		k.badEvent(t, h)
	}
	k.seq++
	k.pending++
	// Near-future events dominate: t >= now >= base, so one unsigned
	// compare selects the level-0 window.
	if t-k.base < span0 {
		idx := int(t) & wheelMask
		// An occupied bucket with room in its tail chunk — most schedules
		// into a busy cycle — takes the event in place; its occupancy bit
		// is already set.
		if f := &k.levels[0].buckets[idx]; f.tail != nil && f.w < chunkCap {
			f.tail.ev[f.w] = slot{h, data}
			f.w++
			return
		}
		k.push(0, idx, event{when: t, h: h, data: data})
		return
	}
	k.schedule(event{when: t, h: h, data: data})
}

func (k *Kernel) badEvent(t Time, h Handler) {
	if h == nil {
		panic("sim: AtEvent with nil handler")
	}
	panic(fmt.Sprintf("sim: event scheduled at %d, before now %d", t, k.now))
}

// schedule files a new event that is not in the level-0 window.
func (k *Kernel) schedule(ev event) {
	if !k.place(ev) {
		k.heapPush(heapEvent{ev, k.seq})
	}
}

// place files ev into the lowest wheel level whose current span contains its
// timestamp and reports whether it did; the caller sends the rest to the
// overflow heap. Spans are aligned, which is what makes bucket order
// dispatch order: a timestamp enters the wheel only at its span's
// refill/cascade boundary or later, so every append lands behind all
// earlier-scheduled events for the same cycle. ev.when is never below base:
// a new event is at or after the clock, which lies in the window, and advance
// refiles only events at or after the window it moved to.
func (k *Kernel) place(ev event) bool {
	when := ev.when
	if when-k.base < span0 {
		k.push(0, int(when)&wheelMask, ev)
		return true
	}
	switch {
	case when < (k.base&^(span1-1))+span1:
		k.push(1, int(when>>wheelBits)&wheelMask, ev)
	case when < (k.base&^(span2-1))+span2:
		k.push(2, int(when>>(2*wheelBits))&wheelMask, ev)
	default:
		return false
	}
	return true
}

// push appends ev to bucket idx of level, starting a new chunk when the
// bucket has none or its tail chunk is full.
func (k *Kernel) push(level, idx int, ev event) {
	lv := &k.levels[level]
	f := &lv.buckets[idx]
	if f.tail == nil || f.w == chunkCap {
		c := k.newChunk()
		if f.tail == nil {
			f.head = c
		} else {
			f.tail.next = c
		}
		f.tail, f.w = c, 0
	}
	f.tail.ev[f.w] = slot{ev.h, ev.data}
	if level != 0 {
		f.tail.when[f.w] = ev.when
	}
	f.w++
	lv.occ[idx>>6] |= 1 << (idx & 63)
}

func (k *Kernel) newChunk() *chunk {
	if k.free == nil {
		slab := new([chunkSlab]chunk)
		for i := range slab {
			k.freeChunk(&slab[i])
		}
	}
	c := k.free
	k.free, c.next = c.next, nil
	return c
}

// freeChunk returns c, whose slots are all clear, to the pool. A pooled
// kernel outlives the simulations that schedule on it — a reset machine
// replays one cell after another — so a stale slot would keep a finished
// run's handler, and everything that handler reaches, alive: dispatch
// clears each slot it consumes, and release clears the chunks it drops.
func (k *Kernel) freeChunk(c *chunk) {
	c.next = k.free
	k.free = c
}

// release returns the chunks of bucket idx at level to the pool and leaves
// the bucket empty.
func (k *Kernel) release(level, idx int) {
	lv := &k.levels[level]
	f := &lv.buckets[idx]
	for c := f.head; c != nil; {
		next := c.next
		clear(c.ev[:])
		k.freeChunk(c)
		c = next
	}
	*f = fifo{}
	lv.occ[idx>>6] &^= 1 << (idx & 63)
}

// Reset returns the kernel to its just-constructed state — time zero, no
// events — returning every bucket's chunks to the pool and keeping the heap's
// capacity, so a pooled kernel's next run schedules without allocating. A
// bucket holds chunks exactly when its occupancy bit is set, so Reset walks
// the set bits of the three bitmaps, not all 768 buckets.
func (k *Kernel) Reset() {
	for level := range k.levels {
		occ := &k.levels[level].occ
		for w := range occ {
			for occ[w] != 0 {
				k.release(level, w<<6+bits.TrailingZeros64(occ[w]))
			}
		}
	}
	k.now, k.seq, k.executed, k.base = 0, 0, 0, 0
	k.stopped = false
	k.cur0 = 0
	k.pending = 0
	clear(k.overflow)
	k.overflow = k.overflow[:0]
}

// firstSet returns the index of the lowest set bit in the occupancy bitmap.
func firstSet(occ *[wheelSize / 64]uint64) (int, bool) {
	for w, bitsWord := range occ {
		if bitsWord != 0 {
			return w<<6 + bits.TrailingZeros64(bitsWord), true
		}
	}
	return 0, false
}

// scan0 returns the lowest occupied level-0 bucket, starting the word scan at
// the cursor (cur0's invariant makes the skipped words provably empty). It
// does not move the cursor: only dispatch may, because only dispatch pins the
// clock to the found bucket.
func (k *Kernel) scan0() (int, bool) {
	occ := &k.levels[0].occ
	for w := k.cur0; w < len(occ); w++ {
		if occ[w] != 0 {
			return w<<6 + bits.TrailingZeros64(occ[w]), true
		}
	}
	return 0, false
}

// advance moves the level-0 window forward to the next occupied region:
// cascading the first non-empty level-1 or level-2 bucket down, or — when
// the wheel is fully drained — jumping to the overflow heap's minimum and
// refilling the wheel's new 2^24-cycle horizon from it. Called only with
// pending > 0 and level 0 empty.
func (k *Kernel) advance() {
	k.cur0 = 0 // base moves; the cascade/refill below may fill any word
	if k.pending == len(k.overflow) {
		// Rollover: every wheel event has dispatched, so the next span is
		// wherever the heap minimum lives. Draining the heap in (when, seq)
		// order seeds each bucket FIFO sorted; later direct schedules into
		// these spans carry larger sequence numbers and append behind.
		k.base = k.overflow[0].when &^ (span0 - 1)
		limit := (k.base &^ (span2 - 1)) + span2
		for len(k.overflow) > 0 && k.overflow[0].when < limit {
			k.refile(k.heapPop().event)
		}
		return
	}
	if idx, ok := firstSet(&k.levels[1].occ); ok {
		k.base = (k.base &^ (span1 - 1)) + Time(idx)<<wheelBits
		k.cascade(1, idx)
		return
	}
	idx, ok := firstSet(&k.levels[2].occ)
	if !ok {
		panic("sim: wheel accounting corrupted (resident events but all levels empty)")
	}
	k.base = (k.base &^ (span2 - 1)) + Time(idx)<<(2*wheelBits)
	k.cascade(2, idx)
}

// cascade redistributes one upper-level bucket into the levels below it,
// preserving FIFO order (and therefore same-cycle dispatch order). The
// window never moves into the bucket being emptied, so refiling cannot
// append to it.
func (k *Kernel) cascade(level, idx int) {
	f := &k.levels[level].buckets[idx]
	for c, r := f.head, f.r; c != nil; c, r = c.next, 0 {
		end := int32(chunkCap)
		if c == f.tail {
			end = f.w
		}
		for i := r; i < end; i++ {
			k.refile(event{c.when[i], c.ev[i].h, c.ev[i].data})
		}
	}
	k.release(level, idx)
}

// refile places an event that advance moved inside the window's span; the
// wheel always has room for it.
func (k *Kernel) refile(ev event) {
	if !k.place(ev) {
		panic(fmt.Sprintf("sim: event at t=%d outside the window it was moved into (base %d)", ev.when, k.base))
	}
}

// Overflow heap: a hand-rolled binary min-heap of event values on
// (when, seq), avoiding container/heap's interface boxing on the cold path.

func heapLess(a, b *heapEvent) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (k *Kernel) heapPush(e heapEvent) {
	h := append(k.overflow, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.overflow = h
}

func (k *Kernel) heapPop() heapEvent {
	h := k.overflow
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = heapEvent{}
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && heapLess(&h[c+1], &h[c]) {
			c++
		}
		if !heapLess(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.overflow = h
	return e
}

// Step executes the single earliest event and returns true, or returns false
// if no events remain.
func (k *Kernel) Step() bool { return k.RunLimit(1) == 1 }

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() { k.RunLimit(math.MaxUint64) }

// RunLimit executes at most n further events, stopping early when the queue
// empties or an event calls Stop; it returns the number executed. It is the
// kernel's one dispatch loop (Step and Run call it): it drains each level-0
// bucket — one timestamp — in a single inner loop, so the occupancy scan and
// the clock update run once per timestamp rather than once per event.
func (k *Kernel) RunLimit(n uint64) uint64 {
	k.stopped = false
	var i uint64
	for i < n && !k.stopped && k.pending > 0 {
		idx, ok := k.scan0()
		if !ok {
			k.advance()
			continue
		}
		k.cur0 = idx >> 6
		i += k.drain(idx, n-i)
	}
	return i
}

// drain dispatches up to n (>= 1) events from the occupied level-0 bucket
// idx and returns how many it ran. While the bucket holds events it is the
// earliest source: every other wheel bucket and every overflow resident lies
// later, and a handler schedules nothing before the clock, so an event it
// adds for this timestamp appends behind the ones queued. drain returns
// early when an event calls Stop or the bucket empties; a bucket refilled
// later is found again by the occupancy scan.
func (k *Kernel) drain(idx int, n uint64) uint64 {
	lv := &k.levels[0]
	f := &lv.buckets[idx]
	now := k.base + Time(idx)
	k.now = now
	for i := uint64(1); ; i++ {
		c := f.head
		s := c.ev[f.r]
		c.ev[f.r] = slot{}
		f.r++
		if c == f.tail {
			if f.r == f.w {
				*f = fifo{}
				lv.occ[idx>>6] &^= 1 << (idx & 63)
				k.freeChunk(c)
			}
		} else if f.r == chunkCap {
			f.head, f.r = c.next, 0
			k.freeChunk(c)
		}
		k.pending--
		k.executed++
		// The event left its bucket first, so the handler's own scheduling
		// may reuse the freed chunk slot.
		s.h.OnEvent(now, s.data)
		if i == n || k.stopped || f.head == nil {
			return i
		}
	}
}

// Stop halts Run or RunLimit after the currently executing event returns;
// events still queued for its timestamp stay queued, in order.
func (k *Kernel) Stop() { k.stopped = true }
