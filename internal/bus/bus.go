// Package bus models Corona's optical broadcast bus (Section 3.2.2): a
// single 64-wavelength waveguide that passes every cluster twice in a coiled,
// spiral-like layout. On the light's first pass around the coil a cluster —
// having acquired the bus's single arbitration token — modulates its message;
// on the second pass the message is "active" and every cluster's splitter
// diverts a fraction of the light to a dead-end waveguide populated with
// detectors, so all clusters snoop the message simultaneously.
//
// The bus exists to turn MOESI invalidations of widely shared lines into one
// message instead of a storm of crossbar unicasts; package cohsim is its
// only user.
package bus

import (
	"fmt"

	"corona/internal/arbiter"
	"corona/internal/noc"
	"corona/internal/sim"
)

// Config parameterizes the broadcast bus.
type Config struct {
	Clusters      int // 64
	BytesPerCycle int // 64 λ dual-edge = 16 B/cycle
	TokenSpeed    int // positions per cycle, as for the crossbar
	InjectQueue   int // per-cluster broadcast FIFO depth
}

// DefaultConfig returns the published bus parameters.
func DefaultConfig() Config {
	return Config{Clusters: 64, BytesPerCycle: 16, TokenSpeed: 8, InjectQueue: 8}
}

// DeliverFunc receives a broadcast at one cluster.
type DeliverFunc func(*noc.Message)

// Bus is the optical broadcast bus. It is not a noc.Network: its delivery
// semantics are one-to-all, and snooped messages are consumed immediately by
// the coherence logic rather than buffered with credits (invalidates are
// small and the snoop path is dedicated). Messages follow the same pooled
// lifecycle as the point-to-point networks, with the retirement point moved
// to where the ownership cycle actually closes: the bus recycles a
// broadcast after its last snoop fires, so snoop callbacks must not retain
// the message.
type Bus struct {
	noc.MsgPool // broadcast free list (Acquire / last snoop recycles)

	k   *sim.Kernel
	cfg Config
	arb *arbiter.TokenRing

	queues  []sim.Fifo[*noc.Message]
	active  []bool
	deliver []DeliverFunc

	// slots parks the in-flight broadcast for its per-cluster snoop events.
	slots sim.Slots[*noc.Message]

	// Broadcasts counts completed broadcasts.
	Broadcasts uint64
}

// New builds a broadcast bus on kernel k.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.Clusters <= 0 || cfg.BytesPerCycle <= 0 || cfg.InjectQueue <= 0 {
		panic(fmt.Sprintf("bus: invalid config %+v", cfg))
	}
	if cfg.Clusters > 1<<16 {
		// snoopEvent carries the cluster id in the data word's low 16 bits.
		panic(fmt.Sprintf("bus: %d clusters exceeds the %d-cluster event encoding limit",
			cfg.Clusters, 1<<16))
	}
	return &Bus{
		k:   k,
		cfg: cfg,
		// One token arbitrates the single bus among all clusters.
		arb:     arbiter.New(k, cfg.Clusters, 1, cfg.TokenSpeed),
		queues:  make([]sim.Fifo[*noc.Message], cfg.Clusters),
		active:  make([]bool, cfg.Clusters),
		deliver: make([]DeliverFunc, cfg.Clusters),
	}
}

// Bus kernel events run on the typed fast path via named views of the Bus,
// so a broadcast's release and its 64 snoops schedule without closures.

// Granted implements arbiter.GrantHandler: cluster diverted the bus token and
// starts modulating its head message.
func (b *Bus) Granted(_, cluster int) { b.transmit(cluster) }

// txDoneEvent fires when the modulated message's tail leaves the source: the
// token re-injects, the broadcast is counted, and any queued broadcast
// re-arbitrates. The data word is the source cluster.
type txDoneEvent Bus

func (e *txDoneEvent) OnEvent(_ sim.Time, data uint64) {
	b := (*Bus)(e)
	src := int(data)
	b.arb.Release(0, src)
	if !b.queues[src].Empty() {
		b.arb.RequestEvent(0, src, b)
	} else {
		b.active[src] = false
	}
	b.Broadcasts++
}

// snoopEvent fires when the second-pass light reaches one cluster's
// detectors. The slot index and the snooping cluster share the data word;
// the last cluster in coil order frees the slot and recycles the message
// (after its own deliver callback has run — the callback may Broadcast,
// which would otherwise re-acquire the message out from under it).
type snoopEvent Bus

func (e *snoopEvent) OnEvent(_ sim.Time, data uint64) {
	b := (*Bus)(e)
	slot, j := data>>16, int(data&0xffff)
	m := b.slots.Get(slot)
	last := j == b.cfg.Clusters-1
	if last {
		b.slots.Free(slot)
	}
	if b.deliver[j] != nil {
		b.deliver[j](m)
	}
	if last {
		b.Release(m)
	}
}

// SetDeliver installs cluster's snoop callback.
func (b *Bus) SetDeliver(cluster int, fn DeliverFunc) { b.deliver[cluster] = fn }

// Broadcast queues msg for transmission to every cluster (including the
// sender, whose own detectors snoop the second pass like everyone else's).
// It returns false when the sender's broadcast FIFO is full.
func (b *Bus) Broadcast(m *noc.Message) bool {
	if m == nil || m.Size <= 0 {
		panic("bus: invalid message")
	}
	if m.Src < 0 || m.Src >= b.cfg.Clusters {
		panic(fmt.Sprintf("bus: source %d out of range", m.Src))
	}
	if b.queues[m.Src].Len() >= b.cfg.InjectQueue {
		return false
	}
	b.queues[m.Src].Push(m)
	if !b.active[m.Src] {
		b.active[m.Src] = true
		b.arb.RequestEvent(0, m.Src, b)
	}
	return true
}

// transmit modulates the head message on the first pass and schedules the
// second-pass snoops.
func (b *Bus) transmit(src int) {
	m := b.queues[src].Pop()

	tx := sim.Time((m.Size + b.cfg.BytesPerCycle - 1) / b.cfg.BytesPerCycle)

	b.k.ScheduleEvent(tx, (*txDoneEvent)(b), uint64(src))

	// The message becomes active when the light enters its second pass: it
	// must first travel from src to the end of the first pass (the coil's
	// midpoint), then each cluster j snoops when the light reaches its
	// second-pass position. Cluster positions on the second pass follow the
	// same increasing order, so cluster j receives at
	// (Clusters - src) + j positions after modulation; the last cluster's
	// snoop event frees the message slot.
	slot := b.slots.Put(m)
	for j := 0; j < b.cfg.Clusters; j++ {
		dist := (b.cfg.Clusters - src) + j
		prop := sim.Time((dist + b.cfg.TokenSpeed - 1) / b.cfg.TokenSpeed)
		b.k.ScheduleEvent(tx+prop, (*snoopEvent)(b), uint64(j)|slot<<16)
	}
}
