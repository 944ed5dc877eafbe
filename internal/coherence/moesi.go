// Package coherence implements Corona's MOESI directory protocol
// (Section 3.1.2) as an untimed state machine. Each cluster's L2 is a
// coherence node; a directory at the line's home cluster tracks the owner and
// sharer set.
//
// The paper built this protocol for die-size and power estimation but did not
// model it in the performance simulation. Package cohsim times it over the
// crossbar and broadcast-bus models and decides which invalidations ride the
// bus; this package only commits the state transitions and checks the MOESI
// invariants.
package coherence

import (
	"fmt"
	"sort"
)

// State is a MOESI cache-line state.
type State uint8

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

type dirEntry struct {
	owner   int // node in M/E/O, or -1
	sharers map[int]bool
}

// Stats counts protocol events.
type Stats struct {
	Invalidations        uint64 // individual sharer invalidations performed
	DataFromMemory       uint64
	CacheToCacheForwards uint64
	WritebacksToMemory   uint64
}

// Protocol is a directory-based MOESI coherence engine over n nodes.
// The directory is distributed by line address: home(line) = line % n,
// matching Corona's per-cluster directories.
type Protocol struct {
	n      int
	dir    map[uint64]*dirEntry
	caches []map[uint64]State
	stats  Stats
}

// New builds a protocol over n nodes.
func New(n int) *Protocol {
	if n <= 0 {
		panic("coherence: need at least one node")
	}
	p := &Protocol{
		n:      n,
		dir:    make(map[uint64]*dirEntry),
		caches: make([]map[uint64]State, n),
	}
	for i := range p.caches {
		p.caches[i] = make(map[uint64]State)
	}
	return p
}

// Stats returns protocol counters.
func (p *Protocol) Stats() Stats { return p.stats }

// Home returns the line's home (directory) node.
func (p *Protocol) Home(line uint64) int { return int(line % uint64(p.n)) }

// StateOf returns node's state for line.
func (p *Protocol) StateOf(node int, line uint64) State { return p.caches[node][line] }

// Holders returns the directory's view of line: the owning node (or -1) and
// the sharer set. Timed protocol engines use it to plan message exchanges
// before committing a transition.
func (p *Protocol) Holders(line uint64) (owner int, sharers []int) {
	e, ok := p.dir[line]
	if !ok {
		return -1, nil
	}
	for s := range e.sharers {
		sharers = append(sharers, s)
	}
	sort.Ints(sharers)
	return e.owner, sharers
}

func (p *Protocol) entry(line uint64) *dirEntry {
	e, ok := p.dir[line]
	if !ok {
		e = &dirEntry{owner: -1, sharers: make(map[int]bool)}
		p.dir[line] = e
	}
	return e
}

func (p *Protocol) setState(node int, line uint64, s State) {
	if s == Invalid {
		delete(p.caches[node], line)
		return
	}
	p.caches[node][line] = s
}

// Read performs node's load miss on line (GetS to the home directory).
func (p *Protocol) Read(node int, line uint64) {
	p.checkNode(node)
	if p.caches[node][line] != Invalid {
		return // already readable in any valid state
	}
	e := p.entry(line)
	switch {
	case e.owner == -1 && len(e.sharers) == 0:
		// Uncached: memory supplies data; grant Exclusive.
		p.stats.DataFromMemory++
		e.owner = node
		p.setState(node, line, Exclusive)
	case e.owner != -1:
		// An owner holds the latest data: forward cache-to-cache; owner
		// degrades M->O / E->S(owner relinquishes ownership to sharer set).
		owner := e.owner
		p.stats.CacheToCacheForwards++
		switch p.caches[owner][line] {
		case Modified, Owned:
			p.setState(owner, line, Owned) // dirty data stays owned
		case Exclusive:
			p.setState(owner, line, Shared)
			e.owner = -1
			e.sharers[owner] = true
		default:
			panic(fmt.Sprintf("coherence: directory owner %d in state %v for line %#x",
				owner, p.caches[owner][line], line))
		}
		e.sharers[node] = true
		p.setState(node, line, Shared)
	default:
		// Shared, no owner: memory supplies data.
		p.stats.DataFromMemory++
		e.sharers[node] = true
		p.setState(node, line, Shared)
	}
}

// Write performs node's store miss on line (GetM to the home directory),
// invalidating all other holders.
func (p *Protocol) Write(node int, line uint64) {
	p.checkNode(node)
	switch p.caches[node][line] {
	case Modified:
		return
	case Exclusive:
		// Silent upgrade.
		p.setState(node, line, Modified)
		return
	}
	e := p.entry(line)

	// Data source: the owner forwards if present, else memory (unless the
	// writer already holds valid data in S/O). The forwarding owner is
	// invalidated with the sharers.
	switch {
	case e.owner != -1 && e.owner != node:
		p.stats.CacheToCacheForwards++
		p.stats.Invalidations++
		p.setState(e.owner, line, Invalid)
	case p.caches[node][line] == Invalid:
		p.stats.DataFromMemory++
	}
	for s := range e.sharers {
		if s != node {
			p.stats.Invalidations++
			p.setState(s, line, Invalid)
		}
	}

	e.owner = node
	e.sharers = make(map[int]bool)
	p.setState(node, line, Modified)
}

// Evict removes line from node's cache, writing dirty data back to memory
// when node owns it.
func (p *Protocol) Evict(node int, line uint64) {
	p.checkNode(node)
	st := p.caches[node][line]
	if st == Invalid {
		return
	}
	e := p.entry(line)
	switch st {
	case Modified, Owned:
		p.stats.WritebacksToMemory++
		e.owner = -1
	case Exclusive:
		e.owner = -1
	case Shared:
		delete(e.sharers, node)
	}
	p.setState(node, line, Invalid)
	if e.owner == -1 && len(e.sharers) == 0 {
		delete(p.dir, line)
	}
}

func (p *Protocol) checkNode(node int) {
	if node < 0 || node >= p.n {
		panic(fmt.Sprintf("coherence: node %d out of range [0,%d)", node, p.n))
	}
}

// CheckInvariants validates global MOESI safety properties, returning a
// descriptive error on the first violation. Tests call it after every
// operation; it is O(lines x nodes).
func (p *Protocol) CheckInvariants() error {
	// Gather per-line views from the caches.
	type view struct {
		m, e, o int
		sharers []int
	}
	lines := make(map[uint64]*view)
	get := func(l uint64) *view {
		v, ok := lines[l]
		if !ok {
			v = &view{m: -1, e: -1, o: -1}
			lines[l] = v
		}
		return v
	}
	for node, c := range p.caches {
		//lint:allow determinism diagnostic-only: which violation reports first is immaterial, and sharers accumulate in the outer loop's node order
		for l, s := range c {
			v := get(l)
			switch s {
			case Modified:
				if v.m != -1 {
					return fmt.Errorf("line %#x: two Modified holders (%d, %d)", l, v.m, node)
				}
				v.m = node
			case Exclusive:
				if v.e != -1 {
					return fmt.Errorf("line %#x: two Exclusive holders (%d, %d)", l, v.e, node)
				}
				v.e = node
			case Owned:
				if v.o != -1 {
					return fmt.Errorf("line %#x: two Owned holders (%d, %d)", l, v.o, node)
				}
				v.o = node
			case Shared:
				v.sharers = append(v.sharers, node)
			}
		}
	}
	for l, v := range lines {
		exclusiveHolders := 0
		if v.m != -1 {
			exclusiveHolders++
		}
		if v.e != -1 {
			exclusiveHolders++
		}
		if v.o != -1 {
			exclusiveHolders++
		}
		if v.m != -1 || v.e != -1 {
			if len(v.sharers) > 0 || v.o != -1 || exclusiveHolders > 1 {
				return fmt.Errorf("line %#x: M/E holder coexists with other copies (M=%d E=%d O=%d S=%v)",
					l, v.m, v.e, v.o, v.sharers)
			}
		}
		// Directory agreement.
		e, ok := p.dir[l]
		if !ok {
			return fmt.Errorf("line %#x: cached but no directory entry", l)
		}
		switch {
		case v.m != -1 && e.owner != v.m:
			return fmt.Errorf("line %#x: directory owner %d, Modified holder %d", l, e.owner, v.m)
		case v.e != -1 && e.owner != v.e:
			return fmt.Errorf("line %#x: directory owner %d, Exclusive holder %d", l, e.owner, v.e)
		case v.o != -1 && e.owner != v.o:
			return fmt.Errorf("line %#x: directory owner %d, Owned holder %d", l, e.owner, v.o)
		}
		for _, s := range v.sharers {
			if !e.sharers[s] {
				return fmt.Errorf("line %#x: node %d Shared but not in directory sharer set", l, s)
			}
		}
	}
	// Directory entries must not name stale holders.
	for l, e := range p.dir {
		if e.owner != -1 {
			st := p.caches[e.owner][l]
			if st != Modified && st != Exclusive && st != Owned {
				return fmt.Errorf("line %#x: directory owner %d holds state %v", l, e.owner, st)
			}
		}
		for s := range e.sharers {
			if p.caches[s][l] != Shared {
				return fmt.Errorf("line %#x: directory sharer %d holds state %v", l, s, p.caches[s][l])
			}
		}
	}
	return nil
}
