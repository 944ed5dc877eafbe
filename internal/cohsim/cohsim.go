// Package cohsim is the timed coherence simulation: the MOESI directory
// protocol of package coherence executed over the actual interconnect models
// — protocol requests, forwards, data, and acknowledgements ride the optical
// crossbar, and wide invalidations ride the optical broadcast bus, with all
// of the networks' arbitration, serialization, and back pressure in effect.
//
// The paper designed this machinery ("the coherence scheme was included for
// purposes of die size and power estimation, but has not yet been modeled in
// the system simulation", Section 3.1.2); this package models it, letting us
// measure what the broadcast bus actually buys: the latency and message cost
// of invalidating a wide sharer pool with one bus transit versus a storm of
// crossbar unicasts.
//
// Modelling choices: the directory serializes transactions per line (a line
// busy bit with a FIFO of waiters), which is the standard blocking-directory
// simplification; memory access costs a fixed latency at the home node;
// protocol state transitions commit atomically when the timed message
// exchange completes, so the untimed protocol engine remains the single
// source of truth for state (and its invariant checker runs underneath).
// This package alone decides whether an invalidation rides the bus.
package cohsim

import (
	"fmt"

	"corona/internal/bus"
	"corona/internal/coherence"
	"corona/internal/config"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/stats"
)

// broadcastThreshold is the number of other holders an invalidation must
// exceed to ride the broadcast bus (when the bus is in use); smaller pools
// are unicast on the crossbar.
const broadcastThreshold = 3

// op is one in-flight coherence transaction.
type op struct {
	id    uint64
	node  int
	line  uint64
	write bool
	start sim.Time
	done  func()
	acks  int // invalidation acks still outstanding
	data  bool
	// invalidated marks writes that had to invalidate at least one holder.
	invalidated bool
}

// System is the timed coherent machine.
type System struct {
	K      *sim.Kernel
	useBus bool
	proto  *coherence.Protocol
	net    noc.Network
	bus    *bus.Bus

	// hubLatency is the per-hop hub processing latency and memLatency the
	// home-node memory access latency for lines no cache can supply, both
	// the system model's (config.Corona).
	hubLatency, memLatency sim.Time

	// busy lines and their waiting transactions, at each home directory.
	busy   map[uint64][]*op
	nextID uint64

	// opSlots and msgSlots park transactions and messages for typed events;
	// atSlots parks the protocol's arrival continuations so a network
	// message's Payload is a plain slot handle rather than a boxed func.
	opSlots  sim.Slots[*op]
	msgSlots sim.Slots[*noc.Message]
	atSlots  sim.Slots[func()]

	// Latency samples by transaction flavour, in ns.
	ReadLatency stats.Sample
	InvLatency  stats.Sample // writes that had to invalidate sharers
	// Completed counts retired transactions.
	Completed uint64
}

// New builds a timed coherence system over Corona's machine (config.Corona):
// its crossbar, built through the fabric registry, its cluster count (the
// broadcast bus's too), hub latency and memory access latency. With useBus, invalidations of more
// than broadcastThreshold holders ride the broadcast bus; without it, every
// invalidation is unicast.
func New(useBus bool) *System {
	cfg := config.Corona()
	k := sim.NewKernel()
	fab, _ := noc.Lookup(cfg.Fabric)
	net, err := fab.Build(k, cfg.Params())
	if err != nil {
		panic(fmt.Sprintf("cohsim: building %s: %v", cfg.Name(), err))
	}
	bcfg := bus.DefaultConfig()
	bcfg.Clusters = cfg.Clusters
	s := &System{
		K:          k,
		useBus:     useBus,
		proto:      coherence.New(cfg.Clusters),
		net:        net,
		bus:        bus.New(k, bcfg),
		hubLatency: sim.Time(cfg.HubLatency),
		memLatency: cfg.MemConfig().AccessCycles,
		busy:       make(map[uint64][]*op),
	}
	// Crossbar arrivals run the protocol's continuations. Bus snoops:
	// invalidation broadcasts are self-acknowledging in this model — every
	// cluster snoops in bounded time, and the second-pass arrival at the
	// writer's own detectors confirms completion, so no ack storm is needed
	// (one of the bus's advantages).
	for c := 0; c < cfg.Clusters; c++ {
		c := c
		s.net.SetDeliver(c, func(m *noc.Message) { s.deliver(c, m) })
		s.bus.SetDeliver(c, func(m *noc.Message) { s.snoop(c, m) })
	}
	return s
}

// The frequent mechanical events — local-hit commits, network injection with
// back-pressure retry, bus injection, serving the next line waiter — run on
// the kernel's typed fast path via named views of the System. The protocol's
// continuation chains (the `at` callbacks threaded through message payloads)
// park in atSlots and run from hopEvent.

// localHitEvent commits a transaction that its own cache satisfied when it
// was issued, after the hub look-up latency — if the copy still satisfies it
// then. A copy demoted or invalidated meanwhile by another node's commit
// sends the transaction to its home directory, as a miss.
type localHitEvent System

func (e *localHitEvent) OnEvent(_ sim.Time, data uint64) {
	s := (*System)(e)
	o := s.opSlots.Take(data)
	if !s.satisfied(o) {
		s.toHome(o)
		return
	}
	if o.write {
		s.proto.Write(o.node, o.line) // silent E -> M upgrade
	}
	s.commit(o)
}

// netSendEvent (re)tries injecting a parked message into the crossbar,
// rescheduling itself while the injection queue exerts back pressure.
type netSendEvent System

func (e *netSendEvent) OnEvent(_ sim.Time, data uint64) {
	s := (*System)(e)
	if !s.net.Send(s.msgSlots.Get(data)) {
		s.K.ScheduleEvent(2, e, data)
		return
	}
	s.msgSlots.Free(data)
}

// busSendEvent is netSendEvent for the broadcast bus.
type busSendEvent System

func (e *busSendEvent) OnEvent(_ sim.Time, data uint64) {
	s := (*System)(e)
	if !s.bus.Broadcast(s.msgSlots.Get(data)) {
		s.K.ScheduleEvent(2, e, data)
		return
	}
	s.msgSlots.Free(data)
}

// hopEvent runs an arrival continuation parked in atSlots after a fixed
// latency: hub-local hops and memory-access delays ride it.
type hopEvent System

func (e *hopEvent) OnEvent(_ sim.Time, data uint64) {
	(*System)(e).atSlots.Take(data)()
}

// serveEvent starts the directory side of the next queued transaction on a
// just-released line.
type serveEvent System

func (e *serveEvent) OnEvent(_ sim.Time, data uint64) {
	s := (*System)(e)
	s.serve(s.opSlots.Take(data))
}

// Protocol exposes the underlying state machine (for invariant checks).
func (s *System) Protocol() *coherence.Protocol { return s.proto }

// Stats returns the protocol's message counters.
func (s *System) Stats() coherence.Stats { return s.proto.Stats() }

// NetworkMessages returns the crossbar's delivered message count.
func (s *System) NetworkMessages() uint64 { return s.net.Stats().Messages }

// BusBroadcasts returns the number of bus transits used.
func (s *System) BusBroadcasts() uint64 { return s.bus.Broadcasts }

// home returns the line's directory node.
func (s *System) home(line uint64) int { return s.proto.Home(line) }

// Access issues a timed read (write=false) or write miss from node on line;
// done runs when the transaction commits. Concurrent transactions on one
// line serialize at the home directory.
func (s *System) Access(node int, line uint64, write bool, done func()) {
	s.nextID++
	o := &op{id: s.nextID, node: node, line: line, write: write, start: s.K.Now(), done: done}
	if s.satisfied(o) {
		s.K.ScheduleEvent(s.hubLatency, (*localHitEvent)(s), s.opSlots.Put(o))
		return
	}
	s.toHome(o)
}

// satisfied reports whether o's own cache satisfies it: any valid copy for
// a read, an exclusive one (E or M) for a write.
func (s *System) satisfied(o *op) bool {
	st := s.proto.StateOf(o.node, o.line)
	if o.write {
		return st == coherence.Modified || st == coherence.Exclusive
	}
	return st != coherence.Invalid
}

// toHome sends o's request to its home directory.
func (s *System) toHome(o *op) {
	s.sendOrLocal(o.node, s.home(o.line), noc.KindRequest, noc.RequestBytes, func() {
		s.arriveAtHome(o)
	})
}

// sendOrLocal moves a protocol message between nodes: over the crossbar for
// remote pairs, through the hub for node-local ones. at runs on arrival,
// parked in atSlots and referenced by the pooled message's payload handle.
func (s *System) sendOrLocal(from, to int, kind noc.Kind, size int, at func()) {
	if from == to {
		s.K.ScheduleEvent(s.hubLatency, (*hopEvent)(s), s.atSlots.Put(at))
		return
	}
	s.nextID++
	m := s.net.Acquire()
	m.ID, m.Src, m.Dst = s.nextID, from, to
	m.Kind, m.Size = kind, size
	m.Payload = s.atSlots.Put(at)
	if !s.net.Send(m) {
		s.K.ScheduleEvent(2, (*netSendEvent)(s), s.msgSlots.Put(m))
	}
}

// deliver dispatches a crossbar arrival: the payload handle resolves the
// continuation (before Consume recycles the message).
func (s *System) deliver(cluster int, m *noc.Message) {
	slot := m.Payload // read before Consume recycles the message
	s.net.Consume(cluster, m)
	s.K.ScheduleEvent(s.hubLatency, (*hopEvent)(s), slot)
}

// snoop handles a bus broadcast at one cluster. The payload word packs the
// writer's node id (low 16 bits) beside the op's slot (high bits), so the
// 63 bystander snoops never touch the registry; the writer's own snoop
// (second pass) takes the op and completes the invalidation phase.
func (s *System) snoop(cluster int, m *noc.Message) {
	if cluster != int(m.Payload&0xffff) {
		return
	}
	o := s.opSlots.Take(m.Payload >> 16)
	// All clusters at or before the writer's second-pass position have now
	// snooped; clusters after it snoop within the same transit. Model the
	// grant as complete at the writer's snoop.
	o.acks = 0
	s.maybeFinishWrite(o)
}

// arriveAtHome runs the directory side of a transaction.
func (s *System) arriveAtHome(o *op) {
	if q, isBusy := s.busy[o.line]; isBusy {
		s.busy[o.line] = append(q, o)
		return
	}
	s.busy[o.line] = nil
	s.serve(o)
}

// serve plans and executes the timed message exchange for o, based on the
// directory's current (pre-transition) state.
func (s *System) serve(o *op) {
	owner, sharers := s.proto.Holders(o.line)
	home := s.home(o.line)

	if !o.write {
		// GetS: data from the owner cache if any, else memory at home.
		commit := func() { s.commitAtRequester(o) }
		if owner >= 0 && owner != o.node {
			s.sendOrLocal(home, owner, noc.KindCoherence, noc.RequestBytes, func() {
				s.sendOrLocal(owner, o.node, noc.KindResponse, noc.ResponseBytes, commit)
			})
			return
		}
		s.K.ScheduleEvent(s.memLatency, (*hopEvent)(s), s.atSlots.Put(func() {
			s.sendOrLocal(home, o.node, noc.KindResponse, noc.ResponseBytes, commit)
		}))
		return
	}

	// GetM: collect every other holder.
	var holders []int
	if owner >= 0 && owner != o.node {
		holders = append(holders, owner)
	}
	for _, sh := range sharers {
		if sh != o.node {
			holders = append(holders, sh)
		}
	}
	o.acks = len(holders)
	o.data = false
	o.invalidated = len(holders) > 0

	dataReady := func() {
		o.data = true
		s.maybeFinishWrite(o)
	}
	// Data source.
	switch {
	case owner >= 0 && owner != o.node:
		s.sendOrLocal(home, owner, noc.KindCoherence, noc.RequestBytes, func() {
			s.sendOrLocal(owner, o.node, noc.KindResponse, noc.ResponseBytes, dataReady)
		})
	case s.proto.StateOf(o.node, o.line) == coherence.Invalid:
		s.K.ScheduleEvent(s.memLatency, (*hopEvent)(s), s.atSlots.Put(func() {
			s.sendOrLocal(home, o.node, noc.KindResponse, noc.ResponseBytes, dataReady)
		}))
	default:
		dataReady() // upgrading a Shared/Owned copy: data already on hand
	}

	// Invalidations.
	if len(holders) == 0 {
		return
	}
	if s.useBus && len(holders) > broadcastThreshold {
		inv := s.bus.Acquire()
		inv.ID, inv.Src, inv.Dst = o.id, home, -1
		inv.Kind, inv.Size = noc.KindInvalidate, noc.RequestBytes
		inv.Payload = s.opSlots.Put(o)<<16 | uint64(o.node)
		if !s.bus.Broadcast(inv) {
			s.K.ScheduleEvent(2, (*busSendEvent)(s), s.msgSlots.Put(inv))
		}
		return
	}
	for _, h := range holders {
		h := h
		s.sendOrLocal(home, h, noc.KindInvalidate, noc.RequestBytes, func() {
			// The holder acks straight to the writer.
			s.sendOrLocal(h, o.node, noc.KindInvalidateAck, noc.RequestBytes, func() {
				o.acks--
				s.maybeFinishWrite(o)
			})
		})
	}
}

// maybeFinishWrite commits a write once its data and every invalidation ack
// have arrived.
func (s *System) maybeFinishWrite(o *op) {
	if !o.write || o.acks > 0 || !o.data {
		return
	}
	s.commitAtRequester(o)
}

// commitAtRequester applies the protocol transition and releases the line.
func (s *System) commitAtRequester(o *op) {
	if o.write {
		s.proto.Write(o.node, o.line)
	} else {
		s.proto.Read(o.node, o.line)
	}
	s.commit(o)
	// Release the home line and serve the next waiter.
	if q, ok := s.busy[o.line]; ok {
		if len(q) == 0 {
			delete(s.busy, o.line)
		} else {
			next := q[0]
			s.busy[o.line] = q[1:]
			s.K.ScheduleEvent(s.hubLatency, (*serveEvent)(s), s.opSlots.Put(next))
		}
	}
}

// commit records completion statistics.
func (s *System) commit(o *op) {
	lat := (s.K.Now() - o.start).Ns()
	if o.write {
		if o.invalidated {
			s.InvLatency.Observe(lat)
		}
	} else {
		s.ReadLatency.Observe(lat)
	}
	s.Completed++
	if o.done != nil {
		o.done()
	}
}

// Run drives the kernel until n transactions complete; it panics on
// deadlock.
func (s *System) Run(n uint64) {
	for s.Completed < n {
		if !s.K.Step() {
			panic(fmt.Sprintf("cohsim: deadlock with %d of %d transactions complete", s.Completed, n))
		}
	}
}
