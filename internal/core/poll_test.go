package core

import (
	"testing"

	"corona/internal/config"
	"corona/internal/sim"
)

// TestPollRunsMatchRunner drives the Hot Spot cell with its own Step loop
// — one Step per kernel dispatch — and requires the Result Runner.Run
// reports for the same cell, KernelEvents included, from at least minRatio
// times fewer dispatches than logical events. Hot Spot saturates one
// controller, so most of its events are injection polls; a poll path that
// fell back to one kernel event per poll would fail the dispatch bound
// while every Result field still matched. On the mesh machines the mesh's
// tail events fold credits, hops and wakes too: with one kernel event per
// credit, hop and wake, LMesh/ECM and HMesh/OCM dispatch 6.9× and 2.1×
// fewer, below their bounds.
func TestPollRunsMatchRunner(t *testing.T) {
	const (
		requests = 4000
		seed     = 42
	)
	hot, ok := FindWorkload("Hot Spot")
	if !ok {
		t.Fatal("no Hot Spot workload")
	}
	for _, c := range []struct {
		name     string
		minRatio uint64
	}{{"XBar/OCM", 4}, {"SWMR/OCM", 4}, {"LMesh/ECM", 8}, {"HMesh/OCM", 3}} {
		cfg, err := config.ParseName(c.name)
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
			if events := sys.K.Executed(); steps*c.minRatio > events {
				t.Errorf("%d dispatches for %d events: polls or mesh tails are not coalescing", steps, events)
			}
			t.Logf("%d dispatches for %d events (%.1fx)", steps, sys.K.Executed(), float64(sys.K.Executed())/float64(steps))
		})
	}
}

// noopEvent is an event that does nothing.
type noopEvent struct{}

func (noopEvent) OnEvent(sim.Time, uint64) {}

// TestPollRunJoinsAcrossWindow arms a run of polls two cycles before the
// end of the kernel's first 256-cycle level-0 window, on hubs whose
// refusal memos keep matching, so every member re-arms forever. The
// re-arms at cycle 254 land in a level-1 bucket, where Kernel.TailIs
// cannot see; the members after the first must still join the first's run
// event. So the polls dispatch as one event every other cycle, each
// counting all its members, and stay one run in their original order.
func TestPollRunJoinsAcrossWindow(t *testing.T) {
	const (
		members = 8
		until   = 600
	)
	cfg, err := config.ParseName("XBar/OCM")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One no-op event moves the idle machine's clock to cycle 252.
	s.K.AtEvent(252, noopEvent{}, 0)
	s.K.Run()
	var words []uint64
	for hub := 0; hub < members; hub++ {
		p := uint64(hub)<<pollHubShift | uint64(hub+1)<<pollDstShift | uint64(refusalMemo(s.epochs, hub))
		words = append(words, p)
		s.schedulePoll(p)
	}
	var steps uint64
	for s.K.Now() < until {
		if !s.K.Step() {
			t.Fatal("the polls stopped re-arming")
		}
		steps++
	}
	// Executed also counts the no-op event.
	if runs := uint64(until-252) / 2; steps != runs || s.K.Executed() != 1+runs*members {
		t.Errorf("%d dispatches for %d events, want %d for %d", steps, s.K.Executed(), runs, 1+runs*members)
	}
	for i, want := range words {
		if i == 0 {
			want |= pollRunStart
		}
		if got := s.polls.pop(); got != want {
			t.Fatalf("member %d of the pending run is %#x, want %#x", i, got, want)
		}
	}
	if !s.polls.empty() {
		t.Fatal("the pending polls hold more than one run")
	}
}

func (q *pollRing) empty() bool { return q.head == q.tail }

func (q *pollRing) pop() uint64 {
	p := q.buf[q.head&uint32(len(q.buf)-1)]
	q.head++
	return p
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
