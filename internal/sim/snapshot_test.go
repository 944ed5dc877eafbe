package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// snapRecorder is a typed handler that records its dispatches and keeps a
// randomized self-perpetuating schedule going, exercising same-cycle ties,
// cascades, and overflow-heap territory.
type snapRecorder struct {
	k     *Kernel
	rng   *Rand
	trace []snapEvent
	left  int
}

type snapEvent struct {
	when Time
	data uint64
}

func (r *snapRecorder) OnEvent(now Time, data uint64) {
	r.trace = append(r.trace, snapEvent{now, data})
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

func seedRecorder(k *Kernel, seed uint64, left int) *snapRecorder {
	r := &snapRecorder{k: k, rng: NewRand(seed), left: left}
	for i := 0; i < 8; i++ {
		k.ScheduleEvent(Time(r.rng.Intn(1<<20)), r, uint64(i))
	}
	return r
}

// TestKernelSnapshotRestoreMatchesOracle snapshots randomized runs at
// arbitrary event counts, restores into a fresh kernel, continues, and
// requires the dispatch trace — (when, data) pairs in dispatch order, which
// pins the (when, seq) tie-break across the restore boundary — to match the
// uninterrupted oracle exactly.
func TestKernelSnapshotRestoreMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			oracle := NewKernel()
			or := seedRecorder(oracle, seed, 400)
			oracle.Run()

			cut := NewRand(seed * 77).Intn(len(or.trace))

			k1 := NewKernel()
			r1 := seedRecorder(k1, seed, 400)
			for i := 0; i < cut; i++ {
				if !k1.Step() {
					t.Fatalf("kernel drained at %d, oracle ran %d", i, len(or.trace))
				}
			}
			snap, err := k1.Snapshot(nil)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}

			// Restore into a fresh kernel, remapping the recorder handler to a
			// new recorder bound to the new kernel with the same RNG state.
			k2 := NewKernel()
			r2 := &snapRecorder{k: k2, rng: r1.rng.Clone(), left: r1.left}
			err = k2.Restore(snap, func(h Handler) Handler {
				if h != Handler(r1) {
					t.Fatalf("unexpected handler %T", h)
				}
				return r2
			})
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if k2.Now() != k1.Now() || k2.Pending() != k1.Pending() || k2.Executed() != k1.Executed() {
				t.Fatalf("restored scalars diverge: now %d/%d pending %d/%d executed %d/%d",
					k2.Now(), k1.Now(), k2.Pending(), k1.Pending(), k2.Executed(), k1.Executed())
			}
			k2.Run()

			got := append(append([]snapEvent(nil), r1.trace...), r2.trace...)
			if !reflect.DeepEqual(got, or.trace) {
				t.Fatalf("trace diverges after restore at cut %d: got %d events, oracle %d", cut, len(got), len(or.trace))
			}

			// The donor kernel, left untouched, must also finish identically:
			// Snapshot must not perturb the source.
			k1.Run()
			if !reflect.DeepEqual(r1.trace, or.trace) {
				t.Fatalf("donor kernel diverged after Snapshot at cut %d", cut)
			}
		})
	}
}

// TestKernelSnapshotRejectsClosures pins the snapshot contract: pending
// closure events cannot be captured.
func TestKernelSnapshotRejectsClosures(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, func() {})
	if _, err := k.Snapshot(nil); err == nil {
		t.Fatal("Snapshot accepted a pending closure event")
	}
}

// TestKernelSnapshotAcceptVeto pins the handler vetting hook.
func TestKernelSnapshotAcceptVeto(t *testing.T) {
	k := NewKernel()
	r := seedRecorder(k, 3, 0)
	_ = r
	if _, err := k.Snapshot(func(Handler) bool { return false }); err == nil {
		t.Fatal("Snapshot ignored the accept veto")
	}
	if _, err := k.Snapshot(func(Handler) bool { return true }); err != nil {
		t.Fatalf("Snapshot rejected accepted handlers: %v", err)
	}
}

// TestKernelRestoreRemapFailureResets pins that a failed restore leaves the
// kernel empty-but-valid rather than half-loaded.
func TestKernelRestoreRemapFailureResets(t *testing.T) {
	k := NewKernel()
	seedRecorder(k, 9, 0)
	snap, err := k.Snapshot(nil)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	k2 := NewKernel()
	if err := k2.Restore(snap, func(Handler) Handler { return nil }); err == nil {
		t.Fatal("Restore succeeded with a nil-returning remap")
	}
	if k2.Pending() != 0 || k2.Now() != 0 {
		t.Fatalf("failed restore left state behind: pending=%d now=%d", k2.Pending(), k2.Now())
	}
	// The reset kernel must be fully usable.
	fired := false
	k2.Schedule(1, func() { fired = true })
	k2.Run()
	if !fired {
		t.Fatal("kernel unusable after failed restore")
	}
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
	trace []snapEvent
	left  int
	next  uint64
}

func (r *burstRecorder) OnEvent(now Time, data uint64) {
	r.trace = append(r.trace, snapEvent{now, data})
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
	k.ScheduleEvent(span1+5, r, 7) // a level-1 resident across the cut
	return r
}

// TestKernelSnapshotRestorePartialChunks cuts a burst-heavy run at points
// that leave buckets partway through a chunk, restores the snapshot into a
// fresh kernel, and requires the continued trace to match the uninterrupted
// run. It also resets a kernel at each cut and requires it to then behave
// like a new one.
func TestKernelSnapshotRestorePartialChunks(t *testing.T) {
	oracle := NewKernel()
	or := seedBursts(oracle, 60)
	oracle.Run()
	for _, cut := range []int{1, chunkCap / 2, chunkCap + 1, 2*chunkCap + 3, len(or.trace) / 2, len(or.trace) - 1} {
		k1 := NewKernel()
		r1 := seedBursts(k1, 60)
		if n := k1.RunLimit(uint64(cut)); n != uint64(cut) {
			t.Fatalf("cut %d: kernel drained after %d events", cut, n)
		}
		snap, err := k1.Snapshot(nil)
		if err != nil {
			t.Fatalf("cut %d: Snapshot: %v", cut, err)
		}
		k2 := NewKernel()
		r2 := &burstRecorder{k: k2, left: r1.left, next: r1.next}
		if err := k2.Restore(snap, func(Handler) Handler { return r2 }); err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if k2.Pending() != k1.Pending() || snap.Pending() != k1.Pending() {
			t.Fatalf("cut %d: restored %d pending (snapshot %d), source %d", cut, k2.Pending(), snap.Pending(), k1.Pending())
		}
		k2.Run()
		got := append(append([]snapEvent(nil), r1.trace...), r2.trace...)
		if !reflect.DeepEqual(got, or.trace) {
			t.Fatalf("cut %d: trace diverges after restore (%d events, oracle %d)", cut, len(got), len(or.trace))
		}

		// Reset with partially consumed chunks, then rerun from scratch.
		k1.Reset()
		if k1.Pending() != 0 || k1.Now() != 0 {
			t.Fatalf("cut %d: Reset left pending=%d now=%d", cut, k1.Pending(), k1.Now())
		}
		again := seedBursts(k1, 60)
		k1.Run()
		if !reflect.DeepEqual(again.trace, or.trace) {
			t.Fatalf("cut %d: reset kernel diverges from a fresh one", cut)
		}
	}
}
