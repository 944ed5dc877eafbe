package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"corona/internal/sim"
)

func TestConfigGeometry(t *testing.T) {
	if s := L1IConfig().Sets(); s != 64 {
		t.Errorf("L1I sets = %d, want 64", s)
	}
	if s := L1DConfig().Sets(); s != 128 {
		t.Errorf("L1D sets = %d, want 128", s)
	}
	if s := L2Config().Sets(); s != 4096 {
		t.Errorf("L2 sets = %d, want 4096", s)
	}
	if s := L2SimConfig().Sets(); s != 256 {
		t.Errorf("L2Sim sets = %d, want 256", s)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(L1DConfig())
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1000+32, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x1000+64, false); r.Hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way set: fill 4 ways, touch the first, insert a fifth; the second
	// (LRU) way must be the victim.
	c := New(Config{Name: "t", SizeBytes: 4 * 64, Ways: 4, LineBytes: 64})
	// One set only; distinct tags via high bits.
	addrs := []uint64{0 << 6, 1 << 6, 2 << 6, 3 << 6}
	for _, a := range addrs {
		c.Access(a, false)
	}
	c.Access(addrs[0], false) // refresh way 0
	r := c.Access(4<<6, false)
	if !r.Eviction {
		t.Fatal("no eviction on full set")
	}
	if r.VictimAddr != addrs[1] {
		t.Errorf("victim = %#x, want %#x (LRU)", r.VictimAddr, addrs[1])
	}
	if !c.Contains(addrs[0]) {
		t.Error("refreshed line evicted")
	}
	if c.Contains(addrs[1]) {
		t.Error("victim still present")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 64, Ways: 1, LineBytes: 64})
	c.Access(0, true) // dirty
	r := c.Access(1<<6, false)
	if !r.Writeback || r.VictimAddr != 0 {
		t.Fatalf("dirty eviction result = %+v, want writeback of 0", r)
	}
	// Clean eviction: no writeback.
	r = c.Access(2<<6, false)
	if r.Writeback {
		t.Fatal("clean eviction produced a writeback")
	}
	if !r.Eviction {
		t.Fatal("eviction not reported")
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 2 * 64, Ways: 2, LineBytes: 64})
	c.Access(0<<6, false)
	c.Access(1<<6, false)
	c.Contains(0 << 6) // must NOT refresh
	r := c.Access(2<<6, false)
	if r.VictimAddr != 0<<6 {
		t.Errorf("victim = %#x, want %#x (Contains must not refresh LRU)", r.VictimAddr, 0<<6)
	}
}

// A loop over a working set that fits misses once per line, cold, and then
// only hits: four passes over 16 lines miss a quarter of the time.
func TestMissRate(t *testing.T) {
	c := New(L1DConfig())
	misses, accesses := 0, 0
	for pass := 0; pass < 4; pass++ {
		for line := uint64(0); line < 16; line++ {
			if !c.Access(line*64, pass%2 == 1).Hit {
				misses++
			}
			accesses++
		}
	}
	if rate := float64(misses) / float64(accesses); rate != 0.25 {
		t.Errorf("miss rate = %v (%d of %d), want 0.25", rate, misses, accesses)
	}
}

// Property: a cache never reports a hit for a line it has not been shown, and
// working sets no larger than one set's ways never evict.
func TestSmallWorkingSetNeverEvicts(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		cfg := Config{Name: "t", SizeBytes: 8 * 64, Ways: 8, LineBytes: 64}
		c := New(cfg)
		// 8 lines mapping to the same single set? Sets()=1, so any 8 lines fit.
		if cfg.Sets() != 1 {
			return false
		}
		lines := make([]uint64, 8)
		for i := range lines {
			lines[i] = rng.Uint64() &^ 63
		}
		// Dedup (collisions would shrink the working set, which is fine).
		for pass := 0; pass < 50; pass++ {
			a := lines[rng.Intn(len(lines))]
			r := c.Access(a, rng.Intn(2) == 0)
			if pass >= len(lines)*2 && r.Eviction {
				// After warm-up, no evictions may occur.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an access hits exactly when its line was present, only a miss
// evicts, and only an eviction writes back.
func TestStatsConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		rng := sim.NewRand(seed)
		c := New(Config{Name: "t", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64})
		for i := 0; i < n; i++ {
			addr := rng.Uint64() % uint64(1<<20)
			present := c.Contains(addr)
			r := c.Access(addr, rng.Intn(2) == 0)
			if r.Hit != present || (r.Eviction && r.Hit) || (r.Writeback && !r.Eviction) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(4)
	primary, ok := m.Allocate(0x40)
	if !primary || !ok {
		t.Fatal("first allocation should be primary")
	}
	primary, ok = m.Allocate(0x40)
	if primary || !ok {
		t.Fatal("second allocation should merge")
	}
	if n := m.Complete(0x40); n != 2 {
		t.Fatalf("Complete = %d, want 2 merged requesters", n)
	}
	if m.Len() != 0 {
		t.Fatal("entry not retired")
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1)
	m.Allocate(2)
	if _, ok := m.Allocate(3); ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if m.Len() != 2 || m.Lookup(3) {
		t.Fatal("refused allocation changed the file")
	}
	// Merging onto existing entries still works at capacity.
	if primary, ok := m.Allocate(1); primary || !ok {
		t.Fatal("merge at capacity failed")
	}
	m.Complete(1)
	if _, ok := m.Allocate(3); !ok {
		t.Fatal("allocation after retire failed")
	}
}

func TestMSHRCompleteAbsentPanics(t *testing.T) {
	m := NewMSHR(2)
	defer func() {
		if recover() == nil {
			t.Error("completing absent line did not panic")
		}
	}()
	m.Complete(0x99)
}

func TestMSHRLookup(t *testing.T) {
	m := NewMSHR(2)
	if m.Lookup(5) {
		t.Fatal("lookup on empty file")
	}
	m.Allocate(5)
	if !m.Lookup(5) {
		t.Fatal("lookup missed outstanding line")
	}
	if m.Cap() != 2 {
		t.Fatal("Cap wrong")
	}
}

// TestMSHRMatchesMap drives the open-addressing MSHR file and a map with
// random Allocate, Complete and Lookup sequences — merges, full-file
// stalls, and lines chosen to share home slots, including the table's last
// slots so probe runs wrap — and requires identical answers (each
// Allocate's primary and ok, each Complete's merge count) and occupancy
// after every operation, with every outstanding line still found.
// Each file starts with a small table that doubles once it is a quarter
// full, up to twice its capacity, and keeps its size across Reset; the
// slot-crowding lines are chosen afresh for every table size, so rehashing
// is exercised on crowded probe runs too.
func TestMSHRMatchesMap(t *testing.T) {
	rng := sim.NewRand(20081016)
	for _, capacity := range []int{1, 2, 3, 7, 16, 64} {
		m := NewMSHR(capacity)
		if want := min(mshrMinTable, m.max); len(m.table) != want {
			t.Fatalf("cap %d: new table has %d slots, want %d", capacity, len(m.table), want)
		}
		size := 0
		var pool []uint64
		for round := 0; round < 3; round++ {
			ref := map[uint64]int{}
			for op := 0; op < 4000; op++ {
				if len(m.table) != size {
					if len(m.table) < size {
						t.Fatalf("cap %d op %d: table shrank from %d to %d slots", capacity, op, size, len(m.table))
					}
					size = len(m.table)
					pool = crowdingPool(m, capacity, rng, ref)
				}
				line := pool[rng.Intn(len(pool))]
				switch rng.Intn(3) {
				case 0, 1:
					primary, ok := m.Allocate(line)
					wantPrimary, wantOK := false, true
					switch {
					case ref[line] > 0:
						ref[line]++
					case len(ref) >= capacity:
						wantOK = false
					default:
						ref[line] = 1
						wantPrimary = true
					}
					if primary != wantPrimary || ok != wantOK {
						t.Fatalf("cap %d op %d: Allocate(%#x) = (%v, %v), want (%v, %v)",
							capacity, op, line, primary, ok, wantPrimary, wantOK)
					}
				case 2:
					n, outstanding := ref[line]
					if !outstanding {
						if m.Lookup(line) {
							t.Fatalf("cap %d op %d: Lookup(%#x) found a retired line", capacity, op, line)
						}
						continue
					}
					if got := m.Complete(line); got != n {
						t.Fatalf("cap %d op %d: Complete(%#x) = %d, want %d", capacity, op, line, got, n)
					}
					delete(ref, line)
				}
				if m.Len() != len(ref) {
					t.Fatalf("cap %d op %d: Len %d, want %d", capacity, op, m.Len(), len(ref))
				}
				if 2*m.Len() > len(m.table) || (4*m.Len() > len(m.table) && len(m.table) < m.max) || len(m.table) > m.max {
					t.Fatalf("cap %d op %d: %d entries in %d slots (largest %d)", capacity, op, m.Len(), len(m.table), m.max)
				}
				for l := range ref {
					if !m.Lookup(l) {
						t.Fatalf("cap %d op %d: outstanding line %#x not found", capacity, op, l)
					}
				}
			}
			m.Reset()
			if m.Len() != 0 || m.Lookup(pool[0]) {
				t.Fatalf("cap %d: Reset left entries", capacity)
			}
			if len(m.table) != size {
				t.Fatalf("cap %d: Reset resized the table from %d to %d slots", capacity, size, len(m.table))
			}
			for i, e := range m.table {
				if e != (mshrEntry{}) {
					t.Fatalf("cap %d: Reset left slot %d non-zero", capacity, i)
				}
			}
		}
		if size != m.max {
			t.Fatalf("cap %d: table reached %d slots, want its largest, %d", capacity, size, m.max)
		}
	}
}

// crowdingPool returns the lines TestMSHRMatchesMap draws from for m's
// current table size: lines crowding three home slots, the last two at the
// table's end, plus a few arbitrary ones and every line still outstanding.
func crowdingPool(m *MSHR, capacity int, rng *sim.Rand, outstanding map[uint64]int) []uint64 {
	size := len(m.table)
	var pool []uint64
	for line := uint64(0); len(pool) < 3*capacity+4; line++ {
		if h := m.home(line); h == 0 || h == size-1 || h == size-2 {
			pool = append(pool, line)
		}
	}
	for i := 0; i < capacity; i++ {
		pool = append(pool, rng.Uint64())
	}
	n := len(pool)
	for l := range outstanding {
		pool = append(pool, l)
	}
	slices.Sort(pool[n:]) // map order is random; the draws must not be
	return pool
}
