package sim

import "fmt"

// KernelSnapshot is a deep, self-contained copy of a Kernel's scheduler
// state: clock, sequence counter, every pending event of every wheel bucket
// in FIFO order, and the overflow heap. It shares nothing mutable with the
// kernel it was taken from, so one snapshot may be restored into many
// kernels, concurrently, from different goroutines — the warmup-forking
// substrate described in docs/DETERMINISM.md.
//
// Handler interface values in the snapshot still reference components of the
// source simulation; Restore remaps them into the target's components.
type KernelSnapshot struct {
	now      Time
	seq      uint64
	executed uint64
	base     Time

	// wheel holds the wheel's events bucket by bucket (level-major, then
	// bucket index), each bucket in FIFO order; counts[level][idx] is how
	// many of them belong to that bucket.
	wheel    []event
	counts   [wheelLevels][wheelSize]int32
	overflow []heapEvent
}

// Now returns the snapshot's simulation clock.
func (s *KernelSnapshot) Now() Time { return s.now }

// Pending returns the number of scheduled events captured in the snapshot.
func (s *KernelSnapshot) Pending() int { return len(s.wheel) + len(s.overflow) }

// Snapshot deep-copies the kernel's state. Closure events (the Schedule/At
// path) cannot be restored into another simulation — a captured closure pins
// the source's components — so any pending closure is an error; hot-path
// components all use the typed Handler path. accept, when non-nil, vets each
// pending event's handler (reject handlers Restore won't know how to remap);
// returning false fails the snapshot with a descriptive error.
func (k *Kernel) Snapshot(accept func(Handler) bool) (*KernelSnapshot, error) {
	s := &KernelSnapshot{
		now:      k.now,
		seq:      k.seq,
		executed: k.executed,
		base:     k.base,
		wheel:    make([]event, 0, k.pending-len(k.overflow)),
		overflow: append([]heapEvent(nil), k.overflow...),
	}
	for level := range k.levels {
		for idx := range k.levels[level].buckets {
			n := len(s.wheel)
			k.each(level, idx, func(ev event) { s.wheel = append(s.wheel, ev) })
			s.counts[level][idx] = int32(len(s.wheel) - n)
		}
	}
	check := func(ev *event) error {
		if _, ok := ev.h.(closureEvent); ok {
			return fmt.Errorf("sim: snapshot: pending closure event at t=%d cannot be restored; schedule restorable work via the typed Handler path", ev.when)
		}
		if accept != nil && !accept(ev.h) {
			return fmt.Errorf("sim: snapshot: pending %T event at t=%d is not restorable", ev.h, ev.when)
		}
		return nil
	}
	for i := range s.wheel {
		if err := check(&s.wheel[i]); err != nil {
			return nil, err
		}
	}
	for i := range s.overflow {
		if err := check(&s.overflow[i].event); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Restore overwrites k with snap's state, building its bucket FIFOs from k's
// chunk pool. remap translates each pending event's handler into the
// restoring simulation's components; nil remap keeps handlers as-is
// (restoring into the same component set). A remap returning nil fails the
// restore, and k is left Reset (empty but valid) rather than half-loaded.
// snap is only read, never written, so concurrent restores from one shared
// snapshot are safe.
func (k *Kernel) Restore(snap *KernelSnapshot, remap func(Handler) Handler) error {
	k.Reset()
	mapped := func(ev event) (event, error) {
		if remap == nil {
			return ev, nil
		}
		h := remap(ev.h)
		if h == nil {
			k.Reset()
			return ev, fmt.Errorf("sim: restore: no mapping for pending %T event at t=%d", ev.h, ev.when)
		}
		ev.h = h
		return ev, nil
	}
	next := 0
	for level := range snap.counts {
		for idx, n := range snap.counts[level] {
			for _, ev := range snap.wheel[next : next+int(n)] {
				ev, err := mapped(ev)
				if err != nil {
					return err
				}
				k.push(level, idx, ev)
			}
			next += int(n)
		}
	}
	for _, he := range snap.overflow {
		ev, err := mapped(he.event)
		if err != nil {
			return err
		}
		// Appending in the snapshot's array order keeps the heap invariant.
		k.overflow = append(k.overflow, heapEvent{ev, he.seq})
	}
	k.now, k.seq, k.executed, k.base = snap.now, snap.seq, snap.executed, snap.base
	k.pending = len(snap.wheel) + len(snap.overflow)
	return nil
}

// Reset returns the kernel to its just-constructed state — time zero, no
// events — returning every bucket's chunks to the pool and keeping the heap's
// capacity, so a pooled kernel's next run schedules without allocating.
func (k *Kernel) Reset() {
	for level := range k.levels {
		for idx := range k.levels[level].buckets {
			if k.levels[level].buckets[idx].head != nil {
				k.release(level, idx)
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
