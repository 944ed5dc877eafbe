package coherence

import (
	"testing"
	"testing/quick"

	"corona/internal/sim"
)

func mustOK(t *testing.T, p *Protocol) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestColdReadGrantsExclusive(t *testing.T) {
	p := New(4)
	p.Read(1, 0x100)
	if st := p.StateOf(1, 0x100); st != Exclusive {
		t.Fatalf("state = %v, want E", st)
	}
	if p.Stats().DataFromMemory != 1 {
		t.Error("cold read should fetch from memory")
	}
	mustOK(t, p)
}

func TestReadSharing(t *testing.T) {
	p := New(4)
	p.Read(0, 0x40)
	p.Read(1, 0x40) // owner E -> S, requester S
	if p.StateOf(0, 0x40) != Shared || p.StateOf(1, 0x40) != Shared {
		t.Fatalf("states = %v/%v, want S/S", p.StateOf(0, 0x40), p.StateOf(1, 0x40))
	}
	if p.Stats().CacheToCacheForwards != 1 {
		t.Error("E owner should forward data cache-to-cache")
	}
	mustOK(t, p)
}

func TestDirtyOwnerForwardsAndStaysOwned(t *testing.T) {
	p := New(4)
	p.Write(2, 0x80) // M at 2 (cold write miss fetches from memory once)
	memReadsBefore := p.Stats().DataFromMemory
	p.Read(3, 0x80)
	if p.StateOf(2, 0x80) != Owned {
		t.Fatalf("previous M holder = %v, want O", p.StateOf(2, 0x80))
	}
	if p.StateOf(3, 0x80) != Shared {
		t.Fatalf("reader = %v, want S", p.StateOf(3, 0x80))
	}
	// The forward itself must not have touched memory.
	if p.Stats().DataFromMemory != memReadsBefore {
		t.Error("dirty forward should not read memory")
	}
	mustOK(t, p)
}

func TestWriteInvalidatesSharers(t *testing.T) {
	p := New(8)
	line := uint64(0x200)
	p.Read(0, line)
	for n := 1; n < 6; n++ {
		p.Read(n, line)
	}
	p.Write(6, line)
	for n := 0; n < 6; n++ {
		if st := p.StateOf(n, line); st != Invalid {
			t.Fatalf("node %d state = %v after invalidation, want I", n, st)
		}
	}
	if p.StateOf(6, line) != Modified {
		t.Fatalf("writer = %v, want M", p.StateOf(6, line))
	}
	if p.Stats().Invalidations != 6 {
		t.Errorf("Invalidations = %d, want 6", p.Stats().Invalidations)
	}
	mustOK(t, p)
}

func TestSilentEToMUpgrade(t *testing.T) {
	p := New(4)
	p.Read(1, 0x40) // E
	p.Write(1, 0x40)
	if p.StateOf(1, 0x40) != Modified {
		t.Fatal("E->M upgrade failed")
	}
	mustOK(t, p)
}

func TestEvictions(t *testing.T) {
	p := New(4)
	p.Write(0, 0x40)
	p.Evict(0, 0x40)
	if p.Stats().WritebacksToMemory != 1 {
		t.Error("M eviction should write back")
	}
	if p.StateOf(0, 0x40) != Invalid {
		t.Error("evicted line still valid")
	}
	mustOK(t, p)

	p.Read(1, 0x40) // E again (line was uncached after eviction)
	if p.StateOf(1, 0x40) != Exclusive {
		t.Fatalf("re-read after full eviction = %v, want E", p.StateOf(1, 0x40))
	}
	p.Evict(1, 0x40)
	if p.Stats().WritebacksToMemory != 1 {
		t.Error("E eviction must not write back")
	}
	mustOK(t, p)
}

func TestOwnedEvictionWritesBack(t *testing.T) {
	p := New(4)
	p.Write(0, 0x40)
	p.Read(1, 0x40) // 0: O, 1: S
	p.Evict(0, 0x40)
	if p.Stats().WritebacksToMemory != 1 {
		t.Error("O eviction should write back dirty data")
	}
	if p.StateOf(1, 0x40) != Shared {
		t.Error("sharer disturbed by owner eviction")
	}
	mustOK(t, p)
	// The remaining sharer's data is clean-in-memory now; a write by it must
	// still work.
	p.Write(1, 0x40)
	if p.StateOf(1, 0x40) != Modified {
		t.Fatal("write after owner eviction failed")
	}
	mustOK(t, p)
}

// Property: under any random operation sequence the MOESI invariants hold
// after every step, and a Write always leaves the writer in M with everyone
// else Invalid.
func TestProtocolInvariantsProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := sim.NewRand(seed)
		ops := int(opsRaw%400) + 1
		p := New(8)
		lines := []uint64{0x40, 0x80, 0xc0, 0x100, 0x140}
		for i := 0; i < ops; i++ {
			node := rng.Intn(8)
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(3) {
			case 0:
				p.Read(node, line)
			case 1:
				p.Write(node, line)
				if p.StateOf(node, line) != Modified {
					return false
				}
				for other := 0; other < 8; other++ {
					if other != node && p.StateOf(other, line) != Invalid {
						return false
					}
				}
			case 2:
				p.Evict(node, line)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHomeDistribution(t *testing.T) {
	p := New(64)
	if p.Home(0) != 0 || p.Home(65) != 1 || p.Home(127) != 63 {
		t.Error("home hashing wrong")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
}
