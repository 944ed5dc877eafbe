// Package cache implements the set-associative cache models of Corona's
// cluster hierarchy (Table 1): per-core 16 KB/4-way L1 instruction and
// 32 KB/4-way L1 data caches and the 4 MB/16-way shared L2, all with 64 B
// lines, LRU replacement, and write-back/write-allocate policy. It also
// provides the MSHR file the hub uses to track and merge outstanding misses.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
}

// Table 1 configurations.
func L1IConfig() Config { return Config{Name: "l1i", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64} }
func L1DConfig() Config { return Config{Name: "l1d", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64} }
func L2Config() Config  { return Config{Name: "l2", SizeBytes: 4 << 20, Ways: 16, LineBytes: 64} }

// L2SimConfig returns the 256 KB L2 used in the paper's simulations "to
// better match our simulated benchmark size and duration" (Section 4).
func L2SimConfig() Config {
	c := L2Config()
	c.SizeBytes = 256 << 10
	return c
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical timestamp; smaller = older.
	lru uint64
}

// Cache is a single-level set-associative cache with LRU replacement and
// write-back/write-allocate policy. It tracks tags only (no data payloads):
// the simulation needs hit/miss/writeback behaviour, not contents.
type Cache struct {
	cfg   Config
	sets  [][]line
	clock uint64
}

// New builds a cache; the configuration must describe a power-of-two set
// count for the address hashing to be sound.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	n := cfg.Sets()
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", n))
	}
	sets := make([][]line, n)
	backing := make([]line, n*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{cfg: cfg, sets: sets}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	return int(lineAddr % uint64(len(c.sets))), lineAddr / uint64(len(c.sets))
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; VictimAddr is its
	// line-aligned address.
	Writeback  bool
	Eviction   bool
	VictimAddr uint64
}

// Access looks up addr, allocating on miss (write-allocate) and marking the
// line dirty on writes. It returns the victim information the caller needs
// to issue a writeback.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	c.clock++
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.clock
			if write {
				lines[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := Result{}
	if lines[victim].valid {
		res.Eviction = true
		res.VictimAddr = c.lineAddr(set, lines[victim].tag)
		if lines[victim].dirty {
			res.Writeback = true
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag*uint64(len(c.sets)) + uint64(set)) * uint64(c.cfg.LineBytes)
}

// Contains reports whether addr's line is present, without touching LRU
// state (a snoop lookup).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Reset returns the cache to its just-constructed state (all lines
// invalid), reusing the backing array.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
}

// mshrEntry is one outstanding line miss and its merged requester count; a
// zero count marks an empty table slot.
type mshrEntry struct {
	line  uint64
	count int
}

// MSHR is a miss-status holding register file: it tracks outstanding line
// misses, merges secondary misses onto the primary, and bounds the number of
// in-flight misses (the finite-MSHR back pressure the paper models). The
// file indexes lines with an open-addressing table: linear probing from a
// multiplicative hash of the line, and backward-shift deletion, so no
// tombstones build up and Allocate, Complete and Lookup take constant
// expected time however full the file is. The table starts small and
// doubles by rehash when an insert would fill it past a quarter, up to the
// smallest power of two of at least twice the capacity, so a file holds
// what its traffic needed rather than its worst case, and keeps it across
// Reset. Doubling at a quarter rather than at half keeps probe runs about
// as short as the full-size table's were at the same entry count. The
// slot order is unobservable: no simulation decision ever iterates the
// file.
type MSHR struct {
	cap   int
	n     int
	max   int  // the table's largest size: the power of two >= 2*cap
	shift uint // 64 - log2(len(table)), for the hash's top bits
	table []mshrEntry
}

// mshrMinTable is the table size a new file starts with (capped at its
// largest size): room for two entries before the first doubling.
const mshrMinTable = 8

// NewMSHR builds an MSHR file with cap entries.
func NewMSHR(cap int) *MSHR {
	if cap <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	m := &MSHR{cap: cap, max: 2}
	for m.max < 2*cap {
		m.max *= 2
	}
	m.resize(min(mshrMinTable, m.max))
	return m
}

// resize moves the entries into a new table of size slots, a power of two.
func (m *MSHR) resize(size int) {
	old := m.table
	m.table = make([]mshrEntry, size)
	m.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.count != 0 {
			i, _ := m.slot(e.line)
			m.table[i] = e
		}
	}
}

// home returns line's preferred table slot (Fibonacci hashing: the top bits
// of the product mix every bit of the line number).
func (m *MSHR) home(line uint64) int { return int((line * 0x9E3779B97F4A7C15) >> m.shift) }

// slot returns line's table index and whether the line is present; when it
// is absent, the index is the empty slot that ends its probe sequence.
func (m *MSHR) slot(line uint64) (int, bool) {
	mask := len(m.table) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		e := &m.table[i]
		if e.count == 0 {
			return i, false
		}
		if e.line == line {
			return i, true
		}
	}
}

// Len returns the number of occupied entries.
func (m *MSHR) Len() int { return m.n }

// Cap returns the entry capacity.
func (m *MSHR) Cap() int { return m.cap }

// Lookup reports whether a miss for line is already outstanding.
func (m *MSHR) Lookup(line uint64) bool {
	_, ok := m.slot(line)
	return ok
}

// Allocate registers a miss for line. primary is true when this is the first
// outstanding miss for the line (the caller must issue the memory request);
// ok is false when the file is full and the miss must stall.
func (m *MSHR) Allocate(line uint64) (primary, ok bool) {
	i, found := m.slot(line)
	if found {
		m.table[i].count++
		return false, true
	}
	if m.n >= m.cap {
		return false, false
	}
	if 4*(m.n+1) > len(m.table) && len(m.table) < m.max {
		m.resize(2 * len(m.table))
		i, _ = m.slot(line)
	}
	m.table[i] = mshrEntry{line: line, count: 1}
	m.n++
	return true, true
}

// Reset drops every entry, keeping the grown table.
// Backward-shift deletion leaves an emptied table all zero, so only a file
// still holding entries is cleared.
func (m *MSHR) Reset() {
	if m.n != 0 {
		clear(m.table)
	}
	m.n = 0
}

// Complete retires line's entry, returning how many requesters were merged
// on it. Completing a line with no entry panics: it indicates a protocol
// bug, not a recoverable condition.
func (m *MSHR) Complete(line uint64) int {
	i, found := m.slot(line)
	if !found {
		panic(fmt.Sprintf("cache: MSHR completion for absent line %#x", line))
	}
	n := m.table[i].count
	m.n--
	// Backward-shift deletion: pull each later entry of the probe run back
	// into the hole when the hole lies on its probe path (it is no farther
	// from the entry than the entry's home is), so lookups never need
	// tombstones.
	mask := len(m.table) - 1
	for j := (i + 1) & mask; m.table[j].count != 0; j = (j + 1) & mask {
		if (j-m.home(m.table[j].line))&mask >= (j-i)&mask {
			m.table[i] = m.table[j]
			i = j
		}
	}
	m.table[i] = mshrEntry{}
	return n
}
