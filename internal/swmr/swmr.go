// Package swmr models a single-writer multiple-reader photonic crossbar —
// the channel organization the Corona paper contrasts its MWSR design
// against (Section 3.2: "an alternative ... each cluster modulates its own
// dedicated channel and every other cluster filters it at the receiver").
//
// Each source cluster owns one DWDM channel that only it can modulate, so
// the send path needs no token arbitration at all: a writer's channel is
// always its own, and a message starts transmitting as soon as the
// destination grants a receive-buffer credit. The contention moves to the
// receive side. In the default organization every cluster carries tuned
// drop filters for all channels (receive-side wavelength filtering), which
// multiplies the ring count — the component-cost argument the paper makes —
// but removes arbitration latency entirely. With TunedReceivers, the model
// instead gives each cluster a single rapidly tunable receiver and
// arbitrates it with the same all-optical token ring the MWSR crossbar uses
// for its writers (package arbiter, reused only where the organization
// actually needs it).
//
// The structural trade against MWSR is head-of-line blocking: a source
// serializes all its traffic through one channel in FIFO order, so a
// message behind a back-pressured destination blocks messages to idle
// destinations — where the MWSR crossbar queues per (source, destination)
// pair and suffers token-acquisition latency instead.
package swmr

import (
	"fmt"

	"corona/internal/arbiter"
	"corona/internal/noc"
	"corona/internal/power"
	"corona/internal/sim"
)

// Config parameterizes the SWMR crossbar.
type Config struct {
	Clusters      int // endpoints (64)
	BytesPerCycle int // channel payload per cycle (64 = one cache line)
	// PropSpeed is the serpentine propagation rate in cluster positions per
	// cycle (8, matching the MWSR waveguide geometry).
	PropSpeed int
	// InjectQueue is the per-source injection FIFO depth. One FIFO per
	// source — not per (source, destination) — is the organization's
	// defining head-of-line constraint.
	InjectQueue int
	// RecvBuffer is the per-destination receive buffer depth in messages;
	// it is the credit pool writers draw from.
	RecvBuffer int
	// TunedReceivers selects the single-tunable-receiver organization:
	// each destination's receiver is arbitrated by an optical token ring.
	// False (the default) models fully provisioned per-channel receivers.
	TunedReceivers bool
}

// DefaultConfig returns the SWMR organization at the paper's channel
// geometry: same width, propagation, and buffering as the MWSR crossbar.
func DefaultConfig() Config {
	return Config{
		Clusters:      64,
		BytesPerCycle: 64,
		PropSpeed:     8,
		InjectQueue:   8,
		RecvBuffer:    16,
	}
}

// srcQueue is one source's injection FIFO over its private channel.
type srcQueue struct {
	msgs   sim.Fifo[*noc.Message]
	active bool // head message is progressing through credit/receiver/transmit
}

// Crossbar implements noc.Network.
type Crossbar struct {
	noc.Endpoints // pool, delivery, injection epochs and counters

	k   *sim.Kernel
	cfg Config
	// arb arbitrates destination receivers; nil unless TunedReceivers.
	arb *arbiter.TokenRing

	queues  []srcQueue  // per source
	credits noc.Credits // per destination receive-buffer pool

	// BusyCycles accumulates channel occupancy for utilization reporting.
	BusyCycles uint64
}

var _ noc.Network = (*Crossbar)(nil)

// pack2 packs a (src, dst) cluster pair into a handler data word.
func pack2(src, dst int) uint64 { return uint64(src)<<16 | uint64(dst) }

func unpack2(data uint64) (src, dst int) { return int(data >> 16 & 0xffff), int(data & 0xffff) }

// creditEvent hands a freed receive-buffer credit to a waiting writer.
type creditEvent Crossbar

func (e *creditEvent) OnEvent(_ sim.Time, data uint64) {
	src, _ := unpack2(data)
	(*Crossbar)(e).haveCredit(src)
}

// releaseEvent fires when a message's tail leaves the source's channel: the
// head (which occupied its injection-FIFO slot while in flight) pops and
// the next queued message restarts at the credit step.
type releaseEvent Crossbar

func (e *releaseEvent) OnEvent(_ sim.Time, data uint64) {
	x := (*Crossbar)(e)
	src := int(data)
	x.queues[src].msgs.Pop()
	x.SlotFreed(src)
	x.advance(src)
}

// rxFreeEvent fires when the tail reaches a tuned receiver: the receiver's
// token re-injects into the arbitration ring.
type rxFreeEvent Crossbar

func (e *rxFreeEvent) OnEvent(_ sim.Time, data uint64) {
	src, dst := unpack2(data)
	(*Crossbar)(e).arb.Release(dst, src)
}

// Granted implements arbiter.GrantHandler for the tuned-receiver
// organization: channel is the destination whose receiver was won, cluster
// the transmitting source.
func (x *Crossbar) Granted(channel, cluster int) { x.transmit(cluster, channel) }

// New builds an SWMR crossbar on kernel k.
func New(k *sim.Kernel, cfg Config) *Crossbar {
	if cfg.Clusters > 1<<16 {
		// pack2 carries cluster ids in 16-bit event data fields.
		panic(fmt.Sprintf("swmr: %d clusters exceeds the %d-cluster event encoding limit",
			cfg.Clusters, 1<<16))
	}
	if cfg.Clusters <= 0 || cfg.BytesPerCycle <= 0 || cfg.PropSpeed <= 0 ||
		cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		panic(fmt.Sprintf("swmr: invalid config %+v", cfg))
	}
	x := &Crossbar{
		Endpoints: noc.NewEndpoints(k, "swmr", cfg.Clusters),
		k:         k,
		cfg:       cfg,
		queues:    make([]srcQueue, cfg.Clusters),
		credits:   noc.NewCredits("swmr", cfg.Clusters, cfg.RecvBuffer),
	}
	if cfg.TunedReceivers {
		x.arb = arbiter.New(k, cfg.Clusters, cfg.Clusters, cfg.PropSpeed)
	}
	return x
}

// Reset implements noc.Resetter: restore the construction state in place,
// keeping the message pool and grown queue capacity. Delivery callbacks are
// left installed; a reusing System overwrites them via SetDeliver.
func (x *Crossbar) Reset() {
	for src := range x.queues {
		q := &x.queues[src]
		q.msgs.Reset()
		q.active = false
	}
	x.credits.Reset()
	x.Endpoints.Reset()
	if x.arb != nil {
		x.arb.Reset()
	}
	x.BusyCycles = 0
}

// Send implements noc.Network: enqueue on the source's channel FIFO.
// Cluster-local traffic never enters the optics, so src == dst panics.
func (x *Crossbar) Send(m *noc.Message) bool {
	x.Check(m)
	q := &x.queues[m.Src]
	if q.msgs.Len() >= x.cfg.InjectQueue {
		return false
	}
	q.msgs.Push(m)
	if !q.active {
		q.active = true
		x.advance(m.Src)
	}
	return true
}

// Consume implements noc.Network: the hub drained one message from
// cluster's receive buffer, freeing a credit and recycling the message.
// Like the MWSR crossbar, each cluster has a single buffer pool, so only
// the freed credit matters.
func (x *Crossbar) Consume(cluster int, m *noc.Message) {
	x.Release(m)
	if src, ok := x.credits.Return(cluster); ok {
		// Hand the credit straight to the waiting writer.
		x.k.ScheduleEvent(0, (*creditEvent)(x), pack2(src, cluster))
	}
}

// advance starts src's head message through the credit (and, if configured,
// receiver-arbitration) pipeline.
func (x *Crossbar) advance(src int) {
	q := &x.queues[src]
	if q.msgs.Empty() {
		q.active = false
		return
	}
	dst := q.msgs.Front().Dst
	// Step 1: acquire a receive-buffer credit at dst. The head waits here on
	// back pressure — and everything queued behind it waits too (HOL).
	if x.credits.Take(dst, src) {
		x.haveCredit(src)
	}
}

// haveCredit is step 2: with full per-channel receivers the source
// transmits immediately (no arbitration — the defining SWMR property);
// with tuned receivers it must win the destination's receiver token first.
func (x *Crossbar) haveCredit(src int) {
	dst := x.queues[src].msgs.Front().Dst
	if x.arb != nil {
		x.arb.RequestEvent(dst, src, x)
		return
	}
	x.transmit(src, dst)
}

// transmit is step 3: modulate the message onto the source's own channel
// and deliver after serpentine propagation. The head stays at the front of
// the source FIFO (holding its injection slot) until the release fires.
func (x *Crossbar) transmit(src, dst int) {
	m := x.queues[src].msgs.Front()

	tx := sim.Time((m.Size + x.cfg.BytesPerCycle - 1) / x.cfg.BytesPerCycle)
	prop := x.propagation(src, dst)
	x.BusyCycles += uint64(tx)

	x.DeliverAfter(tx+prop, m)
	if x.arb != nil {
		// A tuned receiver stays filtering this channel until the tail
		// arrives, so the token re-injects at tx+prop — and the source's
		// next message must not re-request a token it still holds, so its
		// release is scheduled after the token's (same cycle, FIFO order).
		x.k.ScheduleEvent(tx+prop, (*rxFreeEvent)(x), pack2(src, dst))
		x.k.ScheduleEvent(tx+prop, (*releaseEvent)(x), uint64(src))
		return
	}
	// Fully provisioned receivers: the channel frees as soon as the tail
	// leaves the modulators.
	x.k.ScheduleEvent(tx, (*releaseEvent)(x), uint64(src))
}

// propagation returns the serpentine transit time from src's modulators to
// dst's drop filters: light is sourced at the channel home (src), travels
// in cyclically increasing cluster order, and covers PropSpeed positions
// per cycle.
func (x *Crossbar) propagation(src, dst int) sim.Time {
	d := (dst - src) % x.cfg.Clusters
	if d <= 0 {
		d += x.cfg.Clusters
	}
	return sim.Time((d + x.cfg.PropSpeed - 1) / x.cfg.PropSpeed)
}

// Utilization returns mean channel occupancy over elapsed cycles across all
// source channels (0..1).
func (x *Crossbar) Utilization(elapsed sim.Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(x.BusyCycles) / (float64(elapsed) * float64(x.cfg.Clusters))
}

// Parameter keys the "swmr" fabric accepts in noc.FabricParams.Params.
const (
	ParamBytesPerCycle  = "bytes_per_cycle"
	ParamPropSpeed      = "prop_speed"
	ParamInjectQueue    = "inject_queue"
	ParamRecvBuffer     = "recv_buffer"
	ParamTunedReceivers = "tuned_receivers" // 0 = full per-channel receivers, 1 = token-arbitrated
)

// FromParams resolves a Config from the published defaults plus overrides.
func FromParams(p noc.FabricParams) (Config, error) {
	if err := p.CheckKeys("swmr", ParamBytesPerCycle, ParamPropSpeed,
		ParamInjectQueue, ParamRecvBuffer, ParamTunedReceivers); err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	if p.Clusters > 0 {
		cfg.Clusters = p.Clusters
	}
	cfg.BytesPerCycle = p.Get(ParamBytesPerCycle, cfg.BytesPerCycle)
	cfg.PropSpeed = p.Get(ParamPropSpeed, cfg.PropSpeed)
	cfg.InjectQueue = p.Get(ParamInjectQueue, cfg.InjectQueue)
	cfg.RecvBuffer = p.Get(ParamRecvBuffer, cfg.RecvBuffer)
	cfg.TunedReceivers = p.Get(ParamTunedReceivers, 0) != 0
	if cfg.Clusters <= 0 || cfg.BytesPerCycle <= 0 || cfg.PropSpeed <= 0 ||
		cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		return Config{}, fmt.Errorf("swmr: non-positive parameter in %+v", cfg)
	}
	return cfg, nil
}

// init registers the SWMR crossbar with the fabric registry — the worked
// example of docs/ARCHITECTURE.md's "adding a topology" walkthrough.
func init() {
	noc.Register(noc.Fabric{
		Name:        "swmr",
		Display:     "SWMR",
		Description: "SWMR photonic crossbar: arbitration-free send, receive-side wavelength filtering",
		Build: func(k *sim.Kernel, p noc.FabricParams) (noc.Network, error) {
			cfg, err := FromParams(p)
			if err != nil {
				return nil, err
			}
			return New(k, cfg), nil
		},
		Check: func(p noc.FabricParams) error { _, err := FromParams(p); return err },
		BisectionBytesPerSec: func(p noc.FabricParams) float64 {
			cfg, err := FromParams(p)
			if err != nil {
				return 0
			}
			return float64(cfg.Clusters*cfg.BytesPerCycle) * 5e9
		},
		MinTransitCycles: 2,
		PowerW: func(_ noc.Stats, _ sim.Time) float64 {
			return power.SWMRContinuousW
		},
		Utilization: func(n noc.Network, elapsed sim.Time) float64 {
			return n.(*Crossbar).Utilization(elapsed)
		},
	})
}
