// Package swmr models a single-writer multiple-reader photonic crossbar —
// the channel organization the Corona paper contrasts its MWSR design
// against (Section 3.2: "an alternative ... each cluster modulates its own
// dedicated channel and every other cluster filters it at the receiver").
//
// Each source cluster owns one DWDM channel that only it can modulate, so
// the send path needs no token arbitration at all: a writer's channel is
// always its own, and a message starts transmitting as soon as the
// destination grants a receive-buffer credit. The contention moves to the
// receive side: every cluster carries tuned drop filters for all channels
// (receive-side wavelength filtering), which multiplies the ring count —
// the component-cost argument the paper makes — but removes arbitration
// latency entirely.
//
// The structural trade against MWSR is head-of-line blocking: a source
// serializes all its traffic through one channel in FIFO order, so a
// message behind a back-pressured destination blocks messages to idle
// destinations — where the MWSR crossbar queues per (source, destination)
// pair and suffers token-acquisition latency instead.
package swmr

import (
	"fmt"

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
	active bool // head message is progressing through credit/transmit
}

// Crossbar implements noc.Network.
type Crossbar struct {
	noc.Endpoints // pool, delivery, injection epochs and counters

	k   *sim.Kernel
	cfg Config

	queues  []srcQueue  // per source
	credits noc.Credits // per destination receive-buffer pool
}

var _ noc.Network = (*Crossbar)(nil)

// creditEvent hands a freed receive-buffer credit to a waiting writer.
type creditEvent Crossbar

func (e *creditEvent) OnEvent(_ sim.Time, src uint64) { (*Crossbar)(e).transmit(int(src)) }

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

// New builds an SWMR crossbar on kernel k.
func New(k *sim.Kernel, cfg Config) *Crossbar {
	if cfg.Clusters <= 0 || cfg.BytesPerCycle <= 0 || cfg.PropSpeed <= 0 ||
		cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		panic(fmt.Sprintf("swmr: invalid config %+v", cfg))
	}
	return &Crossbar{
		Endpoints: noc.NewEndpoints(k, "swmr", cfg.Clusters),
		k:         k,
		cfg:       cfg,
		queues:    make([]srcQueue, cfg.Clusters),
		credits:   noc.NewCredits("swmr", cfg.Clusters, cfg.RecvBuffer),
	}
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
		x.k.ScheduleEvent(0, (*creditEvent)(x), uint64(src))
	}
}

// advance starts src's head message through the credit pipeline.
func (x *Crossbar) advance(src int) {
	q := &x.queues[src]
	if q.msgs.Empty() {
		q.active = false
		return
	}
	// Acquire a receive-buffer credit at the destination. The head waits
	// here on back pressure — and everything queued behind it waits too
	// (HOL). With one in hand the source transmits at once: no arbitration,
	// the defining SWMR property.
	if x.credits.Take(q.msgs.Front().Dst, src) {
		x.transmit(src)
	}
}

// transmit modulates src's head message onto its own channel and delivers
// it after serpentine propagation. The head stays at the front of the
// source FIFO (holding its injection slot) until the release fires.
func (x *Crossbar) transmit(src int) {
	m := x.queues[src].msgs.Front()

	tx := sim.Time((m.Size + x.cfg.BytesPerCycle - 1) / x.cfg.BytesPerCycle)
	prop := x.propagation(src, m.Dst)
	x.Occupy(tx)

	x.DeliverAfter(tx+prop, m)
	// The receivers are fully provisioned, so the channel frees as soon as
	// the tail leaves the modulators.
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

// FromParams resolves a Config from the published defaults plus overrides.
func FromParams(p noc.FabricParams) (Config, error) {
	cfg := DefaultConfig()
	if p.Clusters > 0 {
		cfg.Clusters = p.Clusters
	}
	if err := p.Apply("swmr",
		noc.Param{Key: "bytes_per_cycle", Field: &cfg.BytesPerCycle},
		noc.Param{Key: "prop_speed", Field: &cfg.PropSpeed},
		noc.Param{Key: "inject_queue", Field: &cfg.InjectQueue},
		noc.Param{Key: "recv_buffer", Field: &cfg.RecvBuffer}); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// init registers the SWMR crossbar with the fabric registry — the worked
// example of docs/ARCHITECTURE.md's "adding a topology" walkthrough.
func init() {
	def := DefaultConfig()
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
		Check:            func(p noc.FabricParams) error { _, err := FromParams(p); return err },
		BisectionTBs:     float64(def.Clusters*def.BytesPerCycle) * 5e9 / 1e12,
		MinTransitCycles: 2,
		PowerW: func(_ noc.Stats, _ sim.Time) float64 {
			return power.SWMRContinuousW
		},
	})
}
