package coherence_test

import (
	"testing"

	"corona/internal/cohsim"
)

// These tests drive the protocol through cohsim, which chooses whether a
// write's invalidations ride the broadcast bus or go as crossbar unicasts.

// share has nodes 0..n-1 read line, one access at a time.
func share(s *cohsim.System, line uint64, n int) uint64 {
	var issued uint64
	for node := 0; node < n; node++ {
		s.Access(node, line, false, nil)
		issued++
		s.Run(issued)
	}
	return issued
}

func TestBroadcastThreshold(t *testing.T) {
	// A write to a line held by few sharers invalidates them by unicast; a
	// wide sharer pool is invalidated by one bus broadcast.
	write := func(sharers int) uint64 {
		s := cohsim.New(true)
		line := uint64(0x1000)
		issued := share(s, line, sharers)
		before := s.BusBroadcasts()
		s.Access(sharers+1, line, true, nil)
		s.Run(issued + 1)
		if got := s.Stats().Invalidations; got != uint64(sharers) {
			t.Errorf("%d sharers: Invalidations = %d, want %d", sharers, got, sharers)
		}
		if err := s.Protocol().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.BusBroadcasts() - before
	}
	if n := write(2); n != 0 {
		t.Fatalf("2 sharers: %d bus broadcasts, want 0", n)
	}
	if n := write(8); n != 1 {
		t.Fatalf("8 sharers: %d bus broadcasts, want 1", n)
	}
}

func TestUnicastVsBroadcastMessageSavings(t *testing.T) {
	// The motivation for the bus (Section 3.2.2): invalidating a wide sharer
	// pool takes one broadcast instead of ~n unicasts and their acks.
	run := func(useBus bool) uint64 {
		s := cohsim.New(useBus)
		line := uint64(0x40)
		issued := share(s, line, 63)
		before := s.NetworkMessages()
		s.Access(63, line, true, nil)
		s.Run(issued + 1)
		return s.NetworkMessages() - before
	}
	withBus := run(true)
	noBus := run(false)
	if noBus <= withBus {
		t.Fatalf("bus saves nothing: %d crossbar messages with bus, %d without", withBus, noBus)
	}
	// An Inv and an InvAck per remote sharer; at most one sharer is the
	// line's home, whose invalidation never crosses the crossbar.
	if noBus-withBus < 2*62 {
		t.Errorf("expected ~126 crossbar messages saved, got %d", noBus-withBus)
	}
}
