// Package coherence implements Corona's MOESI directory protocol
// (Section 3.1.2). Each cluster's L2 is a coherence node; a directory at the
// line's home cluster tracks the owner and sharer set. Invalidations of
// widely shared lines ride the optical broadcast bus ("used to quickly
// invalidate a large pool of sharers with a single message") instead of being
// translated into a storm of crossbar unicasts.
//
// The paper built this protocol for die-size and power estimation but did not
// model it in the performance simulation; here it is implemented and tested
// in full as a functional state machine with a pluggable message-counting
// transport, and exercised against the network models in the coherence
// example.
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

// Transport receives the protocol's traffic so callers can count messages or
// inject them into a network model. Any field may be nil.
type Transport struct {
	// Unicast is invoked for each point-to-point protocol message.
	Unicast func(from, to int, kind string)
	// Broadcast is invoked when an invalidation uses the broadcast bus.
	Broadcast func(from int, kind string)
}

type dirEntry struct {
	owner   int // node in M/E/O, or -1
	sharers map[int]bool
}

// Stats counts protocol events.
type Stats struct {
	Reads                uint64
	Writes               uint64
	Evictions            uint64
	UnicastMessages      uint64
	BroadcastMessages    uint64
	Invalidations        uint64 // individual sharer invalidations performed
	DataFromMemory       uint64
	CacheToCacheForwards uint64
	WritebacksToMemory   uint64
}

// Protocol is a directory-based MOESI coherence engine over n nodes.
// The directory is distributed by line address: home(line) = line % n,
// matching Corona's per-cluster directories.
type Protocol struct {
	n int
	// BroadcastThreshold: invalidations touching more than this many sharers
	// use the broadcast bus; at or below it they are unicast on the crossbar.
	BroadcastThreshold int

	dir    map[uint64]*dirEntry
	caches []map[uint64]State
	tr     Transport
	stats  Stats
}

// New builds a protocol over n nodes with the given transport.
func New(n int, tr Transport) *Protocol {
	if n <= 0 {
		panic("coherence: need at least one node")
	}
	p := &Protocol{
		n:                  n,
		BroadcastThreshold: 3,
		dir:                make(map[uint64]*dirEntry),
		caches:             make([]map[uint64]State, n),
		tr:                 tr,
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

func (p *Protocol) unicast(from, to int, kind string) {
	p.stats.UnicastMessages++
	if p.tr.Unicast != nil {
		p.tr.Unicast(from, to, kind)
	}
}

func (p *Protocol) broadcast(from int, kind string) {
	p.stats.BroadcastMessages++
	if p.tr.Broadcast != nil {
		p.tr.Broadcast(from, kind)
	}
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
	p.stats.Reads++
	if p.caches[node][line] != Invalid {
		return // already readable in any valid state
	}
	home := p.Home(line)
	p.unicast(node, home, "GetS")
	e := p.entry(line)
	switch {
	case e.owner == -1 && len(e.sharers) == 0:
		// Uncached: memory supplies data; grant Exclusive.
		p.stats.DataFromMemory++
		p.unicast(home, node, "DataE")
		e.owner = node
		p.setState(node, line, Exclusive)
	case e.owner != -1:
		// An owner holds the latest data: forward cache-to-cache; owner
		// degrades M->O / E->S(owner relinquishes ownership to sharer set).
		owner := e.owner
		p.unicast(home, owner, "FwdGetS")
		p.unicast(owner, node, "Data")
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
		p.unicast(home, node, "DataS")
		e.sharers[node] = true
		p.setState(node, line, Shared)
	}
}

// Write performs node's store miss on line (GetM to the home directory),
// invalidating all other holders.
func (p *Protocol) Write(node int, line uint64) {
	p.checkNode(node)
	p.stats.Writes++
	switch p.caches[node][line] {
	case Modified:
		return
	case Exclusive:
		// Silent upgrade.
		p.setState(node, line, Modified)
		return
	}
	home := p.Home(line)
	p.unicast(node, home, "GetM")
	e := p.entry(line)

	// Collect every other holder to invalidate.
	var holders []int
	if e.owner != -1 && e.owner != node {
		holders = append(holders, e.owner)
	}
	for s := range e.sharers {
		if s != node {
			holders = append(holders, s)
		}
	}
	sort.Ints(holders) // invalidations go out in node order, not map order

	// Data source: owner forwards if present, else memory (unless the writer
	// already holds valid data in S/O).
	switch {
	case e.owner != -1 && e.owner != node:
		p.unicast(home, e.owner, "FwdGetM")
		p.unicast(e.owner, node, "Data")
		p.stats.CacheToCacheForwards++
	case p.caches[node][line] == Invalid:
		p.stats.DataFromMemory++
		p.unicast(home, node, "DataM")
	}

	// Invalidate: broadcast for large sharer pools, unicast otherwise.
	if len(holders) > p.BroadcastThreshold {
		p.broadcast(home, "InvAll")
	} else {
		for _, h := range holders {
			p.unicast(home, h, "Inv")
		}
	}
	for _, h := range holders {
		p.stats.Invalidations++
		p.setState(h, line, Invalid)
		p.unicast(h, node, "InvAck")
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
	p.stats.Evictions++
	home := p.Home(line)
	e := p.entry(line)
	switch st {
	case Modified, Owned:
		p.unicast(node, home, "PutMO")
		p.stats.WritebacksToMemory++
		e.owner = -1
	case Exclusive:
		p.unicast(node, home, "PutE")
		e.owner = -1
	case Shared:
		p.unicast(node, home, "PutS")
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
