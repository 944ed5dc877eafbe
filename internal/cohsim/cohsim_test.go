package cohsim

import (
	"testing"
	"testing/quick"

	"corona/internal/coherence"
	"corona/internal/config"
	"corona/internal/sim"
)

func TestColdReadCommits(t *testing.T) {
	s := New(true)
	done := false
	s.Access(5, 0x40, false, func() { done = true })
	s.Run(1)
	if !done {
		t.Fatal("transaction never committed")
	}
	if st := s.Protocol().StateOf(5, 0x40); st != coherence.Exclusive {
		t.Fatalf("state = %v, want E", st)
	}
	// Cold read: request to home + memory + data back ≈ 20 ns memory plus
	// tens of cycles of network; must exceed the raw memory latency.
	if mean := s.ReadLatency.Mean(); mean < 20 || mean > 60 {
		t.Errorf("cold read latency = %v ns, want 20-60", mean)
	}
}

func TestLocalHitIsFast(t *testing.T) {
	s := New(true)
	s.Access(3, 0x40, false, nil)
	s.Run(1)
	start, at := s.K.Now(), sim.Time(0)
	s.Access(3, 0x40, false, func() { at = s.K.Now() }) // now a pure hub hit
	s.Run(2)
	if got, want := at-start, sim.Time(config.Corona().HubLatency); got != want {
		t.Errorf("hit latency = %d cycles, want %d (hub only)", got, want)
	}
}

func TestCacheToCacheForward(t *testing.T) {
	s := New(true)
	s.Access(1, 0x80, true, nil) // M at 1
	s.Run(1)
	memBefore := s.Stats().DataFromMemory
	s.Access(2, 0x80, false, nil) // must forward from 1, not memory
	s.Run(2)
	if s.Stats().DataFromMemory != memBefore {
		t.Error("read after remote M went to memory instead of forwarding")
	}
	if st := s.Protocol().StateOf(1, 0x80); st != coherence.Owned {
		t.Errorf("previous owner = %v, want O", st)
	}
}

func TestWriteInvalidatesWithTiming(t *testing.T) {
	s := New(true)
	line := uint64(0x1000)
	issued := uint64(0)
	for n := 0; n < 10; n++ {
		s.Access(n, line, false, nil)
		issued++
		s.Run(issued) // serialize to build the sharer set deterministically
	}
	s.Access(20, line, true, nil)
	issued++
	s.Run(issued)
	for n := 0; n < 10; n++ {
		if st := s.Protocol().StateOf(n, line); st != coherence.Invalid {
			t.Fatalf("sharer %d not invalidated (state %v)", n, st)
		}
	}
	if st := s.Protocol().StateOf(20, line); st != coherence.Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
	if s.BusBroadcasts() == 0 {
		t.Error("wide invalidation should have used the broadcast bus")
	}
	if err := s.Protocol().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBusBeatsUnicastInvalidation(t *testing.T) {
	// The package's headline experiment: invalidating a 40-cluster sharer
	// pool must be faster and cheaper on the bus than with unicasts.
	// The writer is itself a sharer (an upgrade), so its data is on hand and
	// the measured latency is purely the invalidation exchange.
	run := func(useBus bool) (latNs float64, netMsgs uint64) {
		s := New(useBus)
		var issued uint64
		line := uint64(0x2000)
		for n := 0; n < 41; n++ {
			s.Access(n, line, false, nil)
			issued++
			s.Run(issued)
		}
		before := s.NetworkMessages()
		s.Access(40, line, true, nil) // sharer upgrades, invalidating 40 others
		issued++
		s.Run(issued)
		return s.InvLatency.Mean(), s.NetworkMessages() - before
	}
	busLat, busMsgs := run(true)
	uniLat, uniMsgs := run(false)
	if busLat >= uniLat {
		t.Errorf("bus invalidation latency %v ns >= unicast %v ns", busLat, uniLat)
	}
	if busMsgs >= uniMsgs {
		t.Errorf("bus invalidation used %d crossbar messages >= unicast %d", busMsgs, uniMsgs)
	}
	// Unicast costs ~2 crossbar messages per sharer (Inv + Ack).
	if uniMsgs < 70 {
		t.Errorf("unicast messages = %d, want ~80 for 40 sharers", uniMsgs)
	}
}

func TestBroadcastThreshold(t *testing.T) {
	// A sharer upgrades a line held by k others. Up to broadcastThreshold
	// others, the invalidations are unicast on the crossbar (Inv + InvAck
	// each); one more sharer and they ride a single bus transit. The line's
	// home (63) is not a sharer, so no invalidation is hub-local.
	const line = 0x2000 + 63
	upgrade := func(k int) (transits, msgs uint64) {
		s := New(true)
		var issued uint64
		for n := 0; n <= k; n++ {
			s.Access(n, line, false, nil)
			issued++
			s.Run(issued)
		}
		busBefore, netBefore := s.BusBroadcasts(), s.NetworkMessages()
		s.Access(k, line, true, nil)
		s.Run(issued + 1)
		if got := s.Stats().Invalidations; got != uint64(k) {
			t.Errorf("k=%d: Invalidations = %d, want %d", k, got, k)
		}
		if err := s.Protocol().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.BusBroadcasts() - busBefore, s.NetworkMessages() - netBefore
	}
	// GetM to home, then an Inv and an InvAck per other sharer.
	if transits, msgs := upgrade(broadcastThreshold); transits != 0 || msgs != 1+2*broadcastThreshold {
		t.Errorf("%d sharers: %d bus transits and %d crossbar messages, want 0 and %d",
			broadcastThreshold, transits, msgs, 1+2*broadcastThreshold)
	}
	// GetM to home only: the bus transit replaces every Inv and InvAck.
	if transits, msgs := upgrade(broadcastThreshold + 1); transits != 1 || msgs != 1 {
		t.Errorf("%d sharers: %d bus transits and %d crossbar messages, want 1 and 1",
			broadcastThreshold+1, transits, msgs)
	}
}

func TestLineSerialization(t *testing.T) {
	// Two concurrent writes to one line must serialize at the directory and
	// leave exactly one Modified holder.
	s := New(true)
	s.Access(1, 0x40, true, nil)
	s.Access(2, 0x40, true, nil)
	s.Run(2)
	m1 := s.Protocol().StateOf(1, 0x40) == coherence.Modified
	m2 := s.Protocol().StateOf(2, 0x40) == coherence.Modified
	if m1 == m2 {
		t.Fatalf("exactly one writer must end Modified (got %v/%v)", m1, m2)
	}
	if err := s.Protocol().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// accessEvent issues an Access packed in the data word as
// line<<8 | node<<1 | write.
type accessEvent System

func (e *accessEvent) OnEvent(_ sim.Time, d uint64) {
	(*System)(e).Access(int(d>>1&0x7f), d>>8, d&1 == 1, nil)
}

// Property: any interleaving of timed reads and writes completes without
// deadlock and preserves the MOESI invariants.
func TestTimedProtocolProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := sim.NewRand(seed)
		ops := uint64(opsRaw%60) + 1
		s := New(true)
		lines := []uint64{0x40, 0x80, 0xc0}
		for i := uint64(0); i < ops; i++ {
			node := rng.Intn(64)
			line := lines[rng.Intn(len(lines))]
			write := rng.Intn(3) == 0
			delay := sim.Time(rng.Intn(40))
			d := line<<8 | uint64(node)<<1
			if write {
				d |= 1
			}
			s.K.ScheduleEvent(delay, (*accessEvent)(s), d)
		}
		// Drive manually: Access calls are scheduled, so Completed advances
		// as the kernel drains.
		if s.K.RunLimit(3_000_000) >= 3_000_000 {
			return false
		}
		if s.Completed != ops {
			t.Logf("completed %d of %d", s.Completed, ops)
			return false
		}
		return s.Protocol().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSilentUpgrade(t *testing.T) {
	s := New(true)
	s.Access(7, 0x40, false, nil) // E
	s.Run(1)
	msgs := s.NetworkMessages()
	s.Access(7, 0x40, true, nil) // silent E->M
	s.Run(2)
	if s.NetworkMessages() != msgs {
		t.Error("silent upgrade generated network traffic")
	}
	if st := s.Protocol().StateOf(7, 0x40); st != coherence.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

// funcEvent runs a test closure as a kernel event.
type funcEvent func()

func (f funcEvent) OnEvent(sim.Time, uint64) { f() }

// An access that finds its own copy sufficient commits after the hub
// look-up only if the copy still suffices then. A write issued to an
// Exclusive line just before another node's read demotes it must reach
// the directory and invalidate that reader over the network, not commit as
// a hub-only hit.
func TestLocalWriteHitRechecksAtCommit(t *testing.T) {
	for d := sim.Time(0); d <= 60; d++ {
		s := New(true)
		s.Access(1, 0x40, false, nil) // E at node 1
		s.Run(1)
		var order []string
		var readMsgs uint64
		s.Access(2, 0x40, false, func() { // demotes node 1 to S
			order = append(order, "read")
			readMsgs = s.NetworkMessages()
		})
		s.K.ScheduleEvent(d, funcEvent(func() {
			s.Access(1, 0x40, true, func() {
				order = append(order, "write")
				if order[0] == "read" && s.NetworkMessages() == readMsgs {
					t.Errorf("write issued %d cycles after the read committed after the read "+
						"demoted its line, with no invalidation message", d)
				}
			})
		}), 0)
		s.Run(3)
		if err := s.Protocol().CheckInvariants(); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
	}
}

// A read issued to a valid copy just before another node's write
// invalidates it must not complete on the lost copy.
func TestLocalReadHitRechecksAtCommit(t *testing.T) {
	for d := sim.Time(0); d <= 80; d++ {
		s := New(true)
		s.Access(1, 0x40, false, nil) // E at node 1
		s.Run(1)
		s.Access(2, 0x40, true, nil) // invalidates node 1 when it commits
		s.K.ScheduleEvent(d, funcEvent(func() {
			s.Access(1, 0x40, false, func() {
				if st := s.Protocol().StateOf(1, 0x40); st == coherence.Invalid {
					t.Errorf("read issued %d cycles after the write completed with its copy invalid", d)
				}
			})
		}), 0)
		s.Run(3)
		if err := s.Protocol().CheckInvariants(); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
	}
}
