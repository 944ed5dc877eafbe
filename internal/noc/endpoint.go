package noc

import (
	"fmt"

	"corona/internal/sim"
)

// Endpoints is the endpoint bookkeeping every built-in fabric embeds, so
// fabrics differ in topology and arbitration alone: the message pool, the
// delivery callbacks, the injection epochs and the delivery counters. It
// implements Network's Name, Clusters, Acquire, SetDeliver, InjectEpochs
// and Stats; the fabric writes Send and Consume, calls Check at the top of
// Send, SlotFreed whenever a message leaves an injection queue, Occupy when
// a crossbar-style data channel transmits, and Deliver or DeliverAfter when
// a message arrives. Out-of-tree fabrics may implement Network by hand
// instead.
type Endpoints struct {
	MsgPool // Acquire; the fabric's Consume calls Release

	k       *sim.Kernel
	name    string
	deliver []DeliverFunc
	epochs  []uint64 // injection slots freed per source
	stats   Stats
	slots   sim.Slots[*Message] // messages awaiting their DeliverAfter event
}

// NewEndpoints returns the endpoint state of the fabric called name.
func NewEndpoints(k *sim.Kernel, name string, clusters int) Endpoints {
	return Endpoints{k: k, name: name, deliver: make([]DeliverFunc, clusters), epochs: make([]uint64, clusters)}
}

// Name, Clusters, SetDeliver, InjectEpochs and Stats implement Network.
func (e *Endpoints) Name() string                           { return e.name }
func (e *Endpoints) Clusters() int                          { return len(e.deliver) }
func (e *Endpoints) SetDeliver(cluster int, fn DeliverFunc) { e.deliver[cluster] = fn }
func (e *Endpoints) InjectEpochs() []uint64                 { return e.epochs }
func (e *Endpoints) Stats() Stats                           { return e.stats }

// Check panics unless m is valid for this fabric and not cluster-local:
// the hub serves cluster-local traffic without the network.
func (e *Endpoints) Check(m *Message) {
	n := uint(len(e.deliver))
	if m == nil || uint(m.Src) >= n || uint(m.Dst) >= n || m.Size <= 0 || m.Src == m.Dst {
		panic(badMessage{e, m})
	}
}

// badMessage is Check's panic value; building the text off the hot path
// keeps Check inlinable into every Send.
type badMessage struct {
	e *Endpoints
	m *Message
}

func (b badMessage) Error() string {
	if err := Validate(b.m, len(b.e.deliver)); err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%s: message %d is cluster-local (src == dst == %d)", b.e.name, b.m.ID, b.m.Src)
}

// SlotFreed records that a message left one of src's injection queues.
func (e *Endpoints) SlotFreed(src int) { e.epochs[src]++ }

// Occupy records that a data channel carried a message for cycles cycles.
func (e *Endpoints) Occupy(cycles sim.Time) { e.stats.ChannelCycles += uint64(cycles) }

// Deliver counts m and hands it to its destination now.
func (e *Endpoints) Deliver(m *Message) {
	e.stats.Messages++
	e.stats.Bytes += uint64(m.Size)
	e.stats.HopTraversals += uint64(m.Hops)
	e.deliver[m.Dst](m)
}

// DeliverAfter delivers m d cycles from now.
func (e *Endpoints) DeliverAfter(d sim.Time, m *Message) {
	e.k.ScheduleEvent(d, (*deliverEvent)(e), e.slots.Put(m))
}

// deliverEvent is DeliverAfter's typed kernel event; data is m's slot.
type deliverEvent Endpoints

func (d *deliverEvent) OnEvent(_ sim.Time, data uint64) {
	e := (*Endpoints)(d)
	e.Deliver(e.slots.Take(data))
}

// Reset zeroes the epochs in place, the counters and the pending
// deliveries, keeping the pool and the callbacks; the fabric's Reset
// calls it.
func (e *Endpoints) Reset() {
	clear(e.epochs)
	e.stats = Stats{}
	e.slots.Reset()
}

// Credits is a per-destination receive-buffer credit pool: a writer takes
// a credit before transmitting or waits for one in FIFO order, and the
// consumer's returned credit goes to the first waiter.
type Credits struct {
	name  string // fabric name, for the overflow panic
	depth int
	free  []int
	wait  []sim.Fifo[int] // sources waiting, per destination
}

// NewCredits returns depth credits at each of clusters destinations.
func NewCredits(name string, clusters, depth int) Credits {
	c := Credits{name: name, depth: depth, free: make([]int, clusters), wait: make([]sim.Fifo[int], clusters)}
	c.Reset()
	return c
}

// Take takes a credit at dst for src and reports whether one was free; if
// none was, src waits for Return to hand it one.
func (c *Credits) Take(dst, src int) bool {
	if c.free[dst] > 0 {
		c.free[dst]--
		return true
	}
	c.wait[dst].Push(src)
	return false
}

// Return gives back a credit at dst. It hands the credit to the first
// waiting source, which it reports for the caller to resume, or returns it
// to the pool, panicking if that overfills it.
func (c *Credits) Return(dst int) (src int, handed bool) {
	if w := &c.wait[dst]; !w.Empty() {
		return w.Pop(), true
	}
	if c.free[dst]++; c.free[dst] > c.depth {
		panic(fmt.Sprintf("%s: credit overflow at cluster %d", c.name, dst))
	}
	return 0, false
}

// Reset refills every pool and drops every waiter, keeping queue capacity.
func (c *Credits) Reset() {
	for d := range c.free {
		c.free[d] = c.depth
		c.wait[d].Reset()
	}
}
