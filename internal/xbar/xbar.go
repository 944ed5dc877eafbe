// Package xbar models Corona's optical crossbar (Section 3.2.1): a fully
// connected 64x64 interconnect built from 64 many-writer single-reader DWDM
// channels laid out as serpentine waveguide bundles.
//
// Each cluster owns one channel that only it can read; any cluster may write
// the channel by modulating the light as it passes. A channel is 256
// wavelengths (4 bundled waveguides) wide and is modulated on both clock
// edges, moving 64 bytes — one cache line — per 5 GHz clock, for 2.56 Tb/s
// per cluster and 20.48 TB/s total. Light is sourced at the channel's home
// cluster, travels once around the serpentine in 8 clocks, and terminates in
// the home cluster's detectors, so propagation takes up to 8 clocks
// depending on sender position. Write access is arbitrated by the all-optical
// token scheme in package arbiter; receive buffers at the home cluster apply
// credit-based back pressure to writers.
package xbar

import (
	"fmt"

	"corona/internal/arbiter"
	"corona/internal/noc"
	"corona/internal/sim"
)

// Config parameterizes the crossbar.
type Config struct {
	Clusters      int // 64
	BytesPerCycle int // channel payload per cycle (64 = one cache line)
	TokenSpeed    int // cluster positions the token travels per cycle (8)
	// InjectQueue is the per-(source,destination) injection FIFO depth.
	InjectQueue int
	// RecvBuffer is the per-destination receive buffer depth in messages;
	// it is the credit pool writers draw from.
	RecvBuffer int
}

// DefaultConfig returns the published Corona crossbar parameters.
func DefaultConfig() Config {
	return Config{
		Clusters:      64,
		BytesPerCycle: 64,
		TokenSpeed:    8,
		InjectQueue:   8,
		RecvBuffer:    16,
	}
}

// Crossbar implements noc.Network.
type Crossbar struct {
	noc.Endpoints // pool, delivery, injection epochs and counters

	k   *sim.Kernel
	cfg Config
	arb *arbiter.TokenRing

	// queues are the (src,dst) injection FIFOs, claimed by a pair's first
	// Send; a queue's Flag marks its head progressing through
	// credit/token/transmit.
	queues  sim.PairQueues[*noc.Message]
	credits noc.Credits // per destination channel's receive buffer
}

var _ noc.Network = (*Crossbar)(nil)

// The crossbar's kernel events run on the typed fast path: named views of
// the Crossbar implement sim.Handler for each event kind, with the source
// and destination cluster packed into the data word, so the hot
// credit/token/transmit pipeline schedules without allocating.

// pack2 packs a (src, dst) cluster pair into a handler data word.
func pack2(src, dst int) uint64 { return uint64(src)<<16 | uint64(dst) }

func unpack2(data uint64) (src, dst int) { return int(data >> 16 & 0xffff), int(data & 0xffff) }

// creditEvent hands a freed receive-buffer credit to a waiting writer.
type creditEvent Crossbar

func (e *creditEvent) OnEvent(_ sim.Time, data uint64) {
	src, dst := unpack2(data)
	(*Crossbar)(e).haveCredit(src, dst)
}

// releaseEvent fires when a message's tail leaves the modulators: the token
// re-injects and the next queued message restarts at the credit step.
type releaseEvent Crossbar

func (e *releaseEvent) OnEvent(_ sim.Time, data uint64) {
	x := (*Crossbar)(e)
	src, dst := unpack2(data)
	x.arb.Release(dst, src)
	x.advance(src, dst)
}

// Granted implements arbiter.GrantHandler: the destination channel's token
// was diverted for cluster, so the head message transmits.
func (x *Crossbar) Granted(channel, cluster int) { x.transmit(cluster, channel) }

// New builds a crossbar on kernel k.
func New(k *sim.Kernel, cfg Config) *Crossbar {
	if cfg.Clusters > 1<<16 {
		// pack2 carries cluster ids in 16-bit event data fields.
		panic(fmt.Sprintf("xbar: %d clusters exceeds the %d-cluster event encoding limit",
			cfg.Clusters, 1<<16))
	}
	if cfg.Clusters <= 0 || cfg.BytesPerCycle <= 0 || cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		panic(fmt.Sprintf("xbar: invalid config %+v", cfg))
	}
	x := &Crossbar{
		Endpoints: noc.NewEndpoints(k, "xbar", cfg.Clusters),
		k:         k,
		cfg:       cfg,
		arb:       arbiter.New(k, cfg.Clusters, cfg.Clusters, cfg.TokenSpeed),
		queues:    sim.NewPairQueues[*noc.Message](cfg.Clusters),
		credits:   noc.NewCredits("xbar", cfg.Clusters, cfg.RecvBuffer),
	}
	return x
}

// Reset implements noc.Resetter: restore the construction state in place,
// keeping the message pool and grown queue capacity; only the pairs the run
// claimed are touched. Delivery callbacks are left installed; a reusing
// System overwrites them via SetDeliver.
func (x *Crossbar) Reset() {
	x.queues.Reset()
	x.credits.Reset()
	x.Endpoints.Reset()
	x.arb.Reset()
}

// Send implements noc.Network: enqueue on the (src,dst) injection FIFO.
// Cluster-local traffic never enters the optics; the hub must handle it
// without the network, so src == dst panics.
func (x *Crossbar) Send(m *noc.Message) bool {
	x.Check(m)
	q := x.queues.Claim(m.Src, m.Dst)
	if q.Len() >= x.cfg.InjectQueue {
		return false
	}
	q.Push(m)
	if !q.Flag {
		q.Flag = true
		x.advance(m.Src, m.Dst)
	}
	return true
}

// Consume implements noc.Network: the hub drained one message from cluster's
// receive buffer, freeing a credit and recycling the message. The crossbar
// has a single buffer pool per cluster, so only the freed credit matters.
func (x *Crossbar) Consume(cluster int, m *noc.Message) {
	x.Release(m)
	if src, ok := x.credits.Return(cluster); ok {
		// Hand the credit straight to the waiting writer.
		x.k.ScheduleEvent(0, (*creditEvent)(x), pack2(src, cluster))
	}
}

// advance starts the head message of (src,dst) through the credit/token
// pipeline.
func (x *Crossbar) advance(src, dst int) {
	q := x.queues.Get(src, dst)
	if q.Empty() {
		q.Flag = false
		return
	}
	// Step 1: acquire a receive-buffer credit at dst, or wait for one.
	if x.credits.Take(dst, src) {
		x.haveCredit(src, dst)
	}
}

// haveCredit is step 2: arbitrate for the destination's channel token.
func (x *Crossbar) haveCredit(src, dst int) {
	x.arb.RequestEvent(dst, src, x)
}

// transmit is step 3: modulate the message onto the channel, release the
// token with the message tail, and deliver after propagation.
func (x *Crossbar) transmit(src, dst int) {
	m := x.queues.Get(src, dst).Pop()
	x.SlotFreed(src)

	tx := sim.Time((m.Size + x.cfg.BytesPerCycle - 1) / x.cfg.BytesPerCycle)
	prop := x.propagation(src, dst)
	x.Occupy(tx)

	// Token travels in parallel with the tail of the message.
	x.k.ScheduleEvent(tx, (*releaseEvent)(x), pack2(src, dst))
	x.DeliverAfter(tx+prop, m)
}

// propagation returns the serpentine transit time from src's modulators to
// dst's (the channel home's) detectors: light travels in cyclically
// increasing cluster order and covers TokenSpeed positions per cycle,
// so the farthest writer pays the paper's 8-clock maximum.
func (x *Crossbar) propagation(src, dst int) sim.Time {
	d := (dst - src) % x.cfg.Clusters
	if d <= 0 {
		d += x.cfg.Clusters
	}
	return sim.Time((d + x.cfg.TokenSpeed - 1) / x.cfg.TokenSpeed)
}
