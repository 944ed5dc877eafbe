package core

import (
	"fmt"

	"corona/internal/cache"
	"corona/internal/memory"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/stats"
)

// SystemSnapshot is a deep copy of a System's simulation state at a
// network-quiescent instant: the kernel (clock, sequence counter, every
// pending event), memory controllers, MSHR files, transaction registry,
// latency histogram, and counters. It shares nothing mutable with the system
// it was taken from, so one snapshot may be restored into many systems —
// concurrently, under different fabrics — which is what makes warmup forking
// sound (docs/DETERMINISM.md, "Warmup forking and the snapshot contract").
type SystemSnapshot struct {
	clusters   int
	mshrs      int
	hubLatency int
	memCfg     memory.Config

	kernel   *sim.KernelSnapshot
	mcs      []memory.ControllerState
	hubMSHRs []*cache.MSHR
	latency  *stats.Histogram

	wireBytes uint64
	completed int
	nextID    uint64
	txnSlots  sim.Slots[txn]
}

// restorableHandler vets a pending event's handler for Snapshot: true for
// the typed handlers core knows how to remap (hub events, memory completion
// events, the runner's issue wake-up).
func restorableHandler(h sim.Handler) bool {
	switch h.(type) {
	case *submitLocalEvent, *pumpRetryEvent, *respondEvent, *localDoneEvent,
		*retireEvent, *remoteRetryEvent, *issueWake:
		return true
	}
	return memory.OwnsHandler(h)
}

// quiescentNet asserts the snapshot contract's network half: the fabric must
// be able to prove it holds no in-flight state.
func (s *System) quiescentNet() error {
	q, ok := s.Net.(noc.Quiescer)
	if !ok {
		return fmt.Errorf("core: %s: fabric %q cannot assert quiescence (no noc.Quiescer)", s.Cfg.Name(), s.Net.Name())
	}
	if err := q.Quiescent(); err != nil {
		return fmt.Errorf("core: %s: network not quiescent at snapshot: %w", s.Cfg.Name(), err)
	}
	return nil
}

// Snapshot deep-copies the system's state. It requires the network to be
// quiescent — untouched since construction — which is guaranteed before the
// first remote miss issues (the warmup barrier): pre-divergence state is
// fabric-independent, so the snapshot can be restored under any fabric. The
// hubs' injection queues, held deliveries, and closure-captured work would
// all break that contract; their presence is an error.
func (s *System) Snapshot() (*SystemSnapshot, error) {
	if err := s.quiescentNet(); err != nil {
		return nil, err
	}
	if n := s.msgSlots.Len(); n != 0 {
		return nil, fmt.Errorf("core: %s: %d deliveries held for controller space at snapshot", s.Cfg.Name(), n)
	}
	for _, h := range s.hubs {
		for dst := range h.outq {
			if !h.outq[dst].Empty() || h.outArmed[dst] {
				return nil, fmt.Errorf("core: %s: hub %d has queued network injections at snapshot", s.Cfg.Name(), h.id)
			}
		}
	}
	ks, err := s.K.Snapshot(restorableHandler)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", s.Cfg.Name(), err)
	}
	snap := &SystemSnapshot{
		clusters:   s.Cfg.Clusters,
		mshrs:      s.Cfg.MSHRs,
		hubLatency: s.Cfg.HubLatency,
		memCfg:     s.Cfg.MemConfig(),
		kernel:     ks,
		mcs:        make([]memory.ControllerState, len(s.MCs)),
		hubMSHRs:   make([]*cache.MSHR, len(s.hubs)),
		latency:    stats.NewHistogram(1),
		wireBytes:  s.WireBytes,
		completed:  s.completed,
		nextID:     s.nextID,
	}
	for i, mc := range s.MCs {
		if err := mc.CaptureState(&snap.mcs[i]); err != nil {
			return nil, fmt.Errorf("core: %s: %w", s.Cfg.Name(), err)
		}
	}
	for i, h := range s.hubs {
		snap.hubMSHRs[i] = cache.NewMSHR(s.Cfg.MSHRs)
		snap.hubMSHRs[i].CopyFrom(h.mshr)
	}
	snap.latency.CopyFrom(s.Latency)
	snap.txnSlots.CopyFrom(&s.txnSlots)
	return snap, nil
}

// remapHandler translates a handler captured from the snapshot's source
// simulation into this system's equivalent component. extra handles the
// handlers core does not own (the runner's issueWake); nil means unknown.
func (s *System) remapHandler(h sim.Handler, extra func(sim.Handler) sim.Handler) sim.Handler {
	switch e := h.(type) {
	case *submitLocalEvent:
		return (*submitLocalEvent)(s.hubs[(*hub)(e).id])
	case *pumpRetryEvent:
		return (*pumpRetryEvent)(s.hubs[(*hub)(e).id])
	case *respondEvent:
		return (*respondEvent)(s.hubs[(*hub)(e).id])
	case *localDoneEvent:
		return (*localDoneEvent)(s.hubs[(*hub)(e).id])
	case *retireEvent:
		return (*retireEvent)(s.hubs[(*hub)(e).id])
	case *remoteRetryEvent:
		return (*remoteRetryEvent)(s.hubs[(*hub)(e).id])
	}
	if nh, ok := memory.RemapHandler(h, func(id int) *memory.Controller { return s.MCs[id] }); ok {
		return nh
	}
	if extra != nil {
		return extra(h)
	}
	return nil
}

// Restore overwrites the system's simulation state with snap. The target
// must be structurally compatible — same cluster count, MSHR capacity, hub
// latency, and memory configuration; the fabric may differ, which is the
// whole point of warmup forking — and its network must be quiescent (freshly
// built or Reset). extra remaps handlers core does not own. snap is only
// read, so concurrent restores from one shared snapshot are safe.
func (s *System) Restore(snap *SystemSnapshot, extra func(sim.Handler) sim.Handler) error {
	switch {
	case s.Cfg.Clusters != snap.clusters:
		return fmt.Errorf("core: %s: restore cluster count mismatch (%d vs %d)", s.Cfg.Name(), s.Cfg.Clusters, snap.clusters)
	case s.Cfg.MSHRs != snap.mshrs:
		return fmt.Errorf("core: %s: restore MSHR capacity mismatch (%d vs %d)", s.Cfg.Name(), s.Cfg.MSHRs, snap.mshrs)
	case s.Cfg.HubLatency != snap.hubLatency:
		return fmt.Errorf("core: %s: restore hub latency mismatch (%d vs %d)", s.Cfg.Name(), s.Cfg.HubLatency, snap.hubLatency)
	case s.Cfg.MemConfig() != snap.memCfg:
		return fmt.Errorf("core: %s: restore memory config mismatch (%s vs %s)", s.Cfg.Name(), s.Cfg.MemConfig().Name, snap.memCfg.Name)
	}
	if err := s.quiescentNet(); err != nil {
		return err
	}
	remap := func(h sim.Handler) sim.Handler { return s.remapHandler(h, extra) }
	if err := s.K.Restore(snap.kernel, remap); err != nil {
		return fmt.Errorf("core: %s: %w", s.Cfg.Name(), err)
	}
	for i, mc := range s.MCs {
		if err := mc.RestoreState(&snap.mcs[i], remap); err != nil {
			return fmt.Errorf("core: %s: %w", s.Cfg.Name(), err)
		}
	}
	for i, h := range s.hubs {
		h.mshr.CopyFrom(snap.hubMSHRs[i])
		for dst := range h.outq {
			h.outq[dst].Reset()
		}
		clear(h.outArmed)
	}
	s.Latency.CopyFrom(snap.latency)
	s.WireBytes, s.completed, s.nextID = snap.wireBytes, snap.completed, snap.nextID
	s.txnSlots.CopyFrom(&snap.txnSlots)
	s.msgSlots.Reset()
	s.onMSHRFree = nil
	return nil
}

// Reset returns the system to its just-constructed state, reusing every
// grown buffer: the kernel's chunk pool, the network's queues and pools, the
// controllers' booking lists, the hubs' MSHR files and injection queues, and
// the latency reservoir. It fails when the fabric does not support in-place
// reset (no noc.Resetter); callers fall back to building a fresh system.
func (s *System) Reset() error {
	r, ok := s.Net.(noc.Resetter)
	if !ok {
		return fmt.Errorf("core: %s: fabric %q does not support in-place reset (no noc.Resetter)", s.Cfg.Name(), s.Net.Name())
	}
	s.K.Reset()
	r.Reset()
	for _, mc := range s.MCs {
		mc.Reset()
	}
	for _, h := range s.hubs {
		h.mshr.Reset()
		for dst := range h.outq {
			h.outq[dst].Reset()
		}
		clear(h.outArmed)
	}
	s.Latency.Reset()
	s.WireBytes, s.completed, s.nextID = 0, 0, 0
	s.txnSlots.Reset()
	s.msgSlots.Reset()
	s.onMSHRFree = nil
	return nil
}
