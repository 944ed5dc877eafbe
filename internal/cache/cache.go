// Package cache implements the set-associative cache models of Corona's
// cluster hierarchy (Table 1): per-core 16 KB/4-way L1 instruction and
// 32 KB/4-way L1 data caches and the 4 MB/16-way shared L2, all with 64 B
// lines, LRU replacement, and write-back/write-allocate policy. It also
// provides the MSHR file the hub uses to track and merge outstanding misses.
package cache

import "fmt"

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

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses / accesses.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is a single-level set-associative cache with LRU replacement and
// write-back/write-allocate policy. It tracks tags only (no data payloads):
// the simulation needs hit/miss/writeback behaviour, not contents.
type Cache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	stats Stats
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

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

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
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
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
			c.stats.Writebacks++
		}
		c.stats.Evictions++
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

// Invalidate drops addr's line if present, returning whether it was present
// and whether it was dirty (needing a writeback in MOESI's O/M states).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			present, dirty = true, lines[i].dirty
			lines[i] = line{}
			return present, dirty
		}
	}
	return false, false
}

// Occupancy returns the fraction of valid lines (0..1).
func (c *Cache) Occupancy() float64 {
	var valid int
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid {
				valid++
			}
		}
	}
	return float64(valid) / float64(len(c.sets)*c.cfg.Ways)
}

// Reset returns the cache to its just-constructed state (all lines invalid,
// counters zero), reusing the backing array.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
	c.stats = Stats{}
}

// mshrEntry is one outstanding line miss and its merged requester count.
type mshrEntry struct {
	line  uint64
	count int
}

// MSHR is a miss-status holding register file: it tracks outstanding line
// misses, merges secondary misses onto the primary, and bounds the number of
// in-flight misses (the finite-MSHR back pressure the paper models). The
// file is a flat entry slice searched linearly — at the architectural
// capacities involved (tens of entries) that beats a hash map on the
// Allocate/Complete hot path, and the entry order is unobservable: no
// simulation decision ever iterates the file.
type MSHR struct {
	cap     int
	entries []mshrEntry
	// Stats.
	PrimaryMisses   uint64
	SecondaryMerges uint64
	FullStalls      uint64
}

// NewMSHR builds an MSHR file with cap entries.
func NewMSHR(cap int) *MSHR {
	if cap <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHR{cap: cap, entries: make([]mshrEntry, 0, cap)}
}

// find returns line's entry index, or -1.
func (m *MSHR) find(line uint64) int {
	for i := range m.entries {
		if m.entries[i].line == line {
			return i
		}
	}
	return -1
}

// Len returns the number of occupied entries.
func (m *MSHR) Len() int { return len(m.entries) }

// Cap returns the entry capacity.
func (m *MSHR) Cap() int { return m.cap }

// Lookup reports whether a miss for line is already outstanding.
func (m *MSHR) Lookup(line uint64) bool { return m.find(line) >= 0 }

// Allocate registers a miss for line. primary is true when this is the first
// outstanding miss for the line (the caller must issue the memory request);
// ok is false when the file is full and the miss must stall.
func (m *MSHR) Allocate(line uint64) (primary, ok bool) {
	if i := m.find(line); i >= 0 {
		m.entries[i].count++
		m.SecondaryMerges++
		return false, true
	}
	if len(m.entries) >= m.cap {
		m.FullStalls++
		return false, false
	}
	m.entries = append(m.entries, mshrEntry{line: line, count: 1})
	m.PrimaryMisses++
	return true, true
}

// Reset drops every entry and zeroes the counters, keeping capacity.
func (m *MSHR) Reset() {
	m.entries = m.entries[:0]
	m.PrimaryMisses, m.SecondaryMerges, m.FullStalls = 0, 0, 0
}

// Complete retires line's entry, returning how many requesters were merged
// on it. Completing a line with no entry panics: it indicates a protocol
// bug, not a recoverable condition.
func (m *MSHR) Complete(line uint64) int {
	i := m.find(line)
	if i < 0 {
		panic(fmt.Sprintf("cache: MSHR completion for absent line %#x", line))
	}
	n := m.entries[i].count
	last := len(m.entries) - 1
	m.entries[i] = m.entries[last]
	m.entries = m.entries[:last]
	return n
}
