package sim

import "testing"

func TestFifoOrderAndReset(t *testing.T) {
	var q Fifo[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero Fifo not empty")
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			q.Push(round*10 + i)
		}
		if q.Front() != round*10 {
			t.Fatalf("round %d: front = %d", round, q.Front())
		}
		for i := 0; i < 10; i++ {
			if got := q.Pop(); got != round*10+i {
				t.Fatalf("round %d: pop = %d, want %d", round, got, round*10+i)
			}
		}
		if !q.Empty() {
			t.Fatalf("round %d: not empty after draining", round)
		}
		if q.head != 0 || len(q.buf) != 0 {
			t.Fatalf("round %d: drained queue did not reset (head=%d len=%d)", round, q.head, len(q.buf))
		}
	}
	// Capacity survives the resets: no growth after the first round.
	if cap(q.buf) >= 20 {
		t.Fatalf("buffer grew to %d across drain/refill cycles", cap(q.buf))
	}
}

// TestFifoCompactsWhenNeverDrained pins the bounded-memory property for a
// queue that stays non-empty indefinitely (a saturated memory controller's
// waiter list): the dead prefix must be compacted away, keeping the buffer
// proportional to the live window, not to the total traffic.
func TestFifoCompactsWhenNeverDrained(t *testing.T) {
	var q Fifo[int]
	next, expect := 0, 0
	for i := 0; i < 8; i++ { // keep a live window of 8 at all times
		q.Push(next)
		next++
	}
	for i := 0; i < 100_000; i++ {
		q.Push(next)
		next++
		if got := q.Pop(); got != expect {
			t.Fatalf("op %d: pop = %d, want %d", i, got, expect)
		}
		expect++
	}
	if q.Len() != 8 {
		t.Fatalf("live window = %d, want 8", q.Len())
	}
	if cap(q.buf) > 4*(8+compactMin) {
		t.Fatalf("never-drained queue grew to cap %d — compaction not bounding memory", cap(q.buf))
	}
	// Compacted-over slots must not linger past the live window.
	for i := q.Len(); i < len(q.buf); i++ {
		t.Fatalf("buf longer than live window after compaction")
	}
}

func TestFifoZeroesPoppedSlots(t *testing.T) {
	var q Fifo[*int]
	v := new(int)
	q.Push(v)
	q.Push(new(int))
	q.Pop()
	// After popping, the slot behind head must not retain the pointer.
	if q.head != 1 || q.buf[0] != nil {
		t.Fatal("popped slot retains its reference")
	}
}

// TestFifoResetLeavesBufferZeroed pins the invariant Reset relies on to
// clear only the live window: after pushes, pops, a compaction and a
// partial drain, no slot anywhere in the buffer's capacity retains a
// reference once Reset returns.
func TestFifoResetLeavesBufferZeroed(t *testing.T) {
	var q Fifo[*int]
	for i := 0; i < 4*compactMin; i++ {
		q.Push(new(int))
	}
	compacted := false
	for i := 0; i < 3*compactMin; i++ {
		before := q.head
		q.Pop()
		if q.head < before && !q.Empty() {
			compacted = true
		}
		if i%3 == 0 {
			q.Push(new(int))
		}
	}
	if !compacted {
		t.Fatal("workload never compacted the queue")
	}
	for n := q.Len() / 2; n > 0; n-- { // partial drain: live window stays non-empty
		q.Pop()
	}
	if q.Empty() || q.head == 0 {
		t.Fatalf("partial drain left head=%d len=%d, want a live window behind a dead prefix", q.head, q.Len())
	}
	q.Reset()
	if q.Len() != 0 || !q.Empty() {
		t.Fatalf("Len() = %d after Reset", q.Len())
	}
	for i, v := range q.buf[:cap(q.buf)] {
		if v != nil {
			t.Fatalf("slot %d of %d retains a reference after Reset", i, cap(q.buf))
		}
	}
}
