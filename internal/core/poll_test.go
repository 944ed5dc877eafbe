package core

import (
	"testing"

	"corona/internal/config"
)

// TestPollRunsMatchRunner drives the Hot Spot cell on the two photonic
// machines with its own Step loop — one Step per kernel dispatch — and
// requires the Result Runner.Run reports for the same cell, KernelEvents
// included, from at least 4× fewer dispatches than logical events. Hot Spot
// saturates one controller, so most of its events are injection polls; a
// poll path that fell back to one kernel event per poll would fail the
// dispatch bound while every Result field still matched.
func TestPollRunsMatchRunner(t *testing.T) {
	const (
		requests = 4000
		seed     = 42
	)
	hot, ok := FindWorkload("Hot Spot")
	if !ok {
		t.Fatal("no Hot Spot workload")
	}
	for _, name := range []string{"XBar/OCM", "SWMR/OCM"} {
		cfg, err := config.ParseName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cfg.Name(), func(t *testing.T) {
			buckets := MaterializeStream(hot, cfg.Clusters, requests, seed)
			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := replayCell(t, fresh, hot.Name, buckets)

			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ReplayRunner(sys, hot.Name, buckets)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cfg.Clusters; c++ {
				r.pump(c)
			}
			var steps uint64
			for sys.Completed() < requests {
				if !sys.K.Step() {
					t.Fatalf("deadlock with %d of %d requests completed", sys.Completed(), requests)
				}
				steps++
			}
			if got := r.collect(); got != want {
				t.Errorf("Step loop diverges from Runner.Run:\nrun:  %+v\nstep: %+v", want, got)
			}
			if events := sys.K.Executed(); steps*4 > events {
				t.Errorf("%d dispatches for %d events: polls are not coalescing into runs", steps, events)
			}
			t.Logf("%d dispatches for %d events (%.1fx)", steps, sys.K.Executed(), float64(sys.K.Executed())/float64(steps))
		})
	}
}

// TestPollRingGrowsInOrder fills the ring while its contents wrap around
// the buffer's end, so growing must unwrap them, and checks FIFO order.
func TestPollRingGrowsInOrder(t *testing.T) {
	q := newPollRing(1) // 4 words
	var next, want uint64
	for round := 0; round < 6; round++ {
		for i := 0; i < 3+round; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for !q.empty() {
		if got := q.pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d words, pushed %d", want, next)
	}
}
