// Package core assembles the full Corona system model — 64 cluster hubs, an
// on-stack interconnect, and 64 memory controllers with their off-stack
// links — and drives the trace-replay experiments that reproduce the
// paper's evaluation (Figures 8-11). The interconnect is resolved by name
// through the noc fabric registry, so core knows nothing about individual
// topologies: registering a new fabric (docs/ARCHITECTURE.md) makes it
// buildable here, sweepable, and loadable from JSON with no core change.
//
// The hub mirrors Figure 2(b): it routes each L2 miss between the cluster,
// the network interface, and the memory controller, holding it in a finite
// MSHR file and exerting back pressure when any stage (MSHRs, injection
// queues, receive buffers, controller queues) fills — the modelling detail
// the paper calls out ("finite buffers, queues, and ports ... bandwidth,
// latency, back pressure, and capacity limits").
//
// A cell runs one way: its workload's miss stream is materialized
// (MaterializeStream) and a Runner (ReplayRunner) replays it on a System.
// Run does this for one cell on a fresh machine; Client.Compare is a
// one-row sweep at the raw seed; Client.Submit runs a Sweep, deriving each
// row's seed with CellSeed. Recorded traces replay through the same Runner
// (NewTraceRunner).
//
// Sweep is the experiment matrix behind the figures, and a Client is the
// one way to run it. The engine fans the independent (configuration,
// workload) cells out over the Client's bounded worker pool (Pool), whose
// workers claim cells so that no two run one configuration at once while
// others have cells left, with derived per-workload seeds (CellSeed), its
// optional on-disk result cache and its pool of reset-in-place machines,
// producing tables that are byte-identical for every worker count; the
// scheme and its guarantee are documented in docs/DETERMINISM.md.
//
// Execution is context-aware end to end: every run takes a context.Context
// and returns (Result, error) — invalid input is a *ConfigError, a stopped
// run a *CanceledError — and a submitted sweep is a Job whose cells stream
// as they finish (Job.Results) instead of blocking on the matrix barrier.
// That is the seam internal/server exposes over HTTP; docs/API.md documents
// the model.
package core

import (
	"fmt"

	"corona/internal/cache"
	"corona/internal/config"
	"corona/internal/memory"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/stats"
	"corona/internal/traffic"
)

// txn is one in-flight L2 miss transaction.
type txn struct {
	id      uint64
	cluster int
	line    uint64
	write   bool
	issue   sim.Time
}

// System is a fully assembled simulated machine.
type System struct {
	K   *sim.Kernel
	Cfg config.System
	Net noc.Network
	MCs []*memory.Controller

	// fabric is the registry descriptor Net was built from; the result
	// collector uses its analytic metadata (power, channel utilization).
	fabric noc.Fabric

	hubs []*hub

	// Latency is the end-to-end L2 miss latency in nanoseconds (Figure
	// 10's metric: queueing plus transit). ReplayRunner sizes its exact
	// P99 for the replay's request count.
	Latency stats.Tail
	// WireBytes counts memory-transaction bytes for Figure 9's achieved
	// bandwidth.
	WireBytes uint64

	completed int
	nextID    uint64

	// txnSlots parks in-flight transactions — by value, so a transaction is
	// never individually heap-allocated — for the hubs' typed events and the
	// messages that carry them: a transaction occupies exactly one slot from
	// Issue to retirement, and that slot index is what rides in
	// noc.Message.Payload. msgSlots parks back-pressured deliveries awaiting
	// controller space. Together they make the steady-state request
	// lifecycle allocation-free.
	txnSlots sim.Slots[txn]
	msgSlots sim.Slots[*noc.Message]

	// polls holds the members of every pending injection-poll run, in
	// dispatch order (pollEvent, schedulePoll).
	polls pollRing
	// epochs is the network's live per-source injection epochs
	// (noc.Network.InjectEpochs), read by the refusal memo.
	epochs []uint64

	// outq holds the messages awaiting network injection, per hub and
	// destination, with one retry poll per pair (its Flag, armRetry) —
	// unbounded here because the MSHR file already bounds a cluster's
	// outstanding work. A pair claims a queue only when the network first
	// refuses it, so hubs that never see back pressure hold none.
	outq sim.PairQueues[*noc.Message]

	// replay is the Runner replaying on this system, from ReplayRunner
	// until its Run returns: each retirement resumes the cluster's issue,
	// and the replay's last one stops the kernel.
	replay *Runner
}

// hub is one cluster's message router (Figure 2b).
type hub struct {
	sys  *System
	id   int
	mshr *cache.MSHR
}

// A poll word packs one pending injection poll: the refusal memo in the low
// 32 bits, then the destination and the hub, and pollRunStart on the first
// member of each run.
const (
	pollDstShift  = 32
	pollHubShift  = 47
	pollFieldMask = 1<<15 - 1
	pollRunStart  = 1 << 63

	// maxClusters is the largest machine a poll word can address.
	maxClusters = pollFieldMask + 1
)

// pollRing is a FIFO of poll words over a power-of-two buffer. Every
// pending poll waits on a queued message, so a cell holds at most as many
// as it has transactions in flight: NewSystem sizes the ring for 4 per hub,
// which covers small cells, and a busier cell doubles it, at most up to one
// poll per hub and destination (the outq Flag).
type pollRing struct {
	buf        []uint64
	head, tail uint32 // free-running; buf index is value & (len(buf)-1)
}

func newPollRing(clusters int) pollRing {
	n := 1
	for n < 4*clusters {
		n <<= 1
	}
	return pollRing{buf: make([]uint64, n)}
}

func (q *pollRing) push(p uint64) {
	if int(q.tail-q.head) == len(q.buf) {
		buf := make([]uint64, 2*len(q.buf))
		for i := range q.buf {
			buf[i] = q.buf[(q.head+uint32(i))&uint32(len(q.buf)-1)]
		}
		q.buf, q.head, q.tail = buf, 0, uint32(len(q.buf))
	}
	q.buf[q.tail&uint32(len(q.buf)-1)] = p
	q.tail++
}

// Hub kernel events run on the typed fast path via named views of the hub.
// The data word is the transaction's txnSlots index — the same index the
// transaction keeps for its whole Issue→retire life — except for the
// controller-space retry events, whose data is a msgSlots index holding the
// back-pressured delivery.

// submitLocalEvent pushes a cluster-local miss into the memory controller
// after the hub traversal.
type submitLocalEvent hub

func (e *submitLocalEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.submitLocal(data)
}

// pollEvent dispatches one run of injection polls: consecutive polls of
// one timestamp share a single kernel event (schedulePoll), and the handler
// runs them in order from the front of s.polls. Each member re-drives one
// hub's back-pressured injection queue for one destination. While its memo
// still matches (see refusalMemo), the network would refuse the same head
// again, so the member only re-arms — the reschedule a refused Send leads
// to — without touching the queue.
//
// A re-arm leaves a pollEvent as the tail of the bucket two cycles ahead,
// and re-arming schedules nothing else, so a member that re-arms right
// after another joins that run directly, whichever wheel level holds it.
//
// The ring's indices stay in locals for the whole run, and a re-armed
// member is written straight to the tail: every member pops one word
// before it pushes at most one, so the write always has room. Only a
// member that drives its queue hands the indices back, because pumpOut
// may arm polls of its own.
type pollEvent System

func (e *pollEvent) OnEvent(sim.Time, uint64) {
	s := (*System)(e)
	q := &s.polls
	buf, head, tail := q.buf, q.head, q.tail
	mask := uint32(len(buf) - 1)
	epochs := s.epochs
	var folded uint64
	rearmed := false // the previous member re-armed
	for {
		p := buf[head&mask]
		head++
		hub := int(p >> pollHubShift & pollFieldMask)
		if memo := uint32(p); memo != 0 && memo == refusalMemo(epochs, hub) {
			p &^= pollRunStart
			if !rearmed {
				p |= s.joinOrStartRun()
				rearmed = true
			}
			buf[tail&mask] = p
			tail++
		} else {
			rearmed = false
			q.head, q.tail = head, tail
			dst := int(p >> pollDstShift & pollFieldMask)
			out := s.outq.Get(hub, dst)
			out.Flag = false
			s.hubs[hub].pumpOut(out, dst)
			buf, head, tail = q.buf, q.head, q.tail
			mask = uint32(len(buf) - 1)
		}
		if head == tail || buf[head&mask]&pollRunStart != 0 {
			break
		}
		folded++
	}
	q.head, q.tail = head, tail
	s.K.CountExecuted(folded)
}

// respondEvent is the memory controller's typed completion for remote
// transactions: send the response back over the network.
type respondEvent hub

func (e *respondEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.respond(data)
}

// localDoneEvent is the completion for cluster-local transactions: the
// response crosses only the hub, then the transaction retires.
type localDoneEvent hub

func (e *localDoneEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.sys.K.ScheduleEvent(sim.Time(h.sys.Cfg.HubLatency), (*retireEvent)(h), data)
}

// retireEvent completes a transaction at its requesting cluster.
type retireEvent hub

func (e *retireEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.sys.retire(data)
}

// remoteRetryEvent re-presents a delivered request to a previously full
// memory controller; its data parks the held message in msgSlots.
type remoteRetryEvent hub

func (e *remoteRetryEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.submitRemote(h.sys.msgSlots.Take(data))
}

// NewSystem builds a machine per cfg. Invalid input — an unregistered
// fabric, rejected parameters, non-positive structural sizing, or a fabric
// whose built network disagrees with the configured cluster count — returns
// a *ConfigError instead of panicking, so bad configurations are a caller
// problem (a 4xx behind the server) rather than a crash.
func NewSystem(cfg config.System) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &ConfigError{Name: cfg.Name(), Err: err}
	}
	if cfg.Clusters > maxClusters {
		return nil, &ConfigError{Name: cfg.Name(), Err: fmt.Errorf(
			"core: %s: %d clusters exceeds the supported %d", cfg.Name(), cfg.Clusters, maxClusters)}
	}
	k := sim.NewKernel()
	s := &System{
		K:     k,
		Cfg:   cfg,
		MCs:   make([]*memory.Controller, cfg.Clusters),
		hubs:  make([]*hub, cfg.Clusters),
		polls: newPollRing(cfg.Clusters),
		outq:  sim.NewPairQueues[*noc.Message](cfg.Clusters),
	}
	fab, _ := noc.Lookup(cfg.Fabric) // Validate guarantees registration
	net, err := fab.Build(k, cfg.Params())
	if err != nil {
		return nil, &ConfigError{Name: cfg.Name(), Err: fmt.Errorf("core: %s: %w", cfg.Name(), err)}
	}
	s.fabric, s.Net, s.epochs = fab, net, net.InjectEpochs()
	if s.Net.Clusters() != cfg.Clusters {
		return nil, &ConfigError{Name: cfg.Name(), Err: fmt.Errorf(
			"core: %s: network has %d endpoints, config %d", cfg.Name(), s.Net.Clusters(), cfg.Clusters)}
	}
	if len(s.epochs) != cfg.Clusters {
		return nil, &ConfigError{Name: cfg.Name(), Err: fmt.Errorf(
			"core: %s: network has %d injection epochs, want one per cluster (%d)", cfg.Name(), len(s.epochs), cfg.Clusters)}
	}
	mcfg := cfg.MemConfig()
	for c := 0; c < cfg.Clusters; c++ {
		s.MCs[c] = memory.NewController(k, mcfg, c)
		h := &hub{sys: s, id: c, mshr: cache.NewMSHR(cfg.MSHRs)}
		s.hubs[c] = h
		s.Net.SetDeliver(c, h.deliver)
	}
	return s, nil
}

// Reset returns the system to its just-constructed state, reusing every
// grown buffer: the kernel's chunk pool, the network's queues and pools, the
// controllers' booking lists, the hubs' MSHR tables and claimed injection
// queues, and the latency tail's heap. It touches only what the last cell
// used: the kernel's occupied buckets, the claimed queues, the MSHR tables
// left holding entries. It fails when the fabric does not support in-place
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
	}
	s.outq.Reset()
	s.Latency.Reset(0)
	s.WireBytes, s.completed, s.nextID = 0, 0, 0
	s.txnSlots.Reset()
	s.msgSlots.Reset()
	s.polls.head, s.polls.tail = 0, 0
	s.replay = nil
	return nil
}

// Completed returns the number of retired transactions.
func (s *System) Completed() int { return s.completed }

// Issue injects one L2 miss at the current simulation time. It returns false
// when the cluster's MSHR file is full (the caller must retry after a
// retirement). Merged secondary misses return true without generating
// network traffic, exactly like hardware MSHRs.
func (s *System) Issue(cluster int, addr uint64, write bool) bool {
	h := s.hubs[cluster]
	line := addr / noc.LineBytes
	primary, ok := h.mshr.Allocate(line)
	if !ok {
		return false
	}
	if !primary {
		return true // merged onto an outstanding miss
	}
	s.nextID++
	home := traffic.HomeOf(addr, s.Cfg.Clusters)
	slot := s.txnSlots.Put(txn{
		id:      s.nextID,
		cluster: cluster,
		line:    line,
		write:   write,
		issue:   s.K.Now(),
	})
	if home == cluster {
		// Local transaction: hub -> MC directly, no network.
		s.K.ScheduleEvent(sim.Time(s.Cfg.HubLatency), (*submitLocalEvent)(h), slot)
		return true
	}
	m := s.Net.Acquire()
	m.ID, m.Src, m.Dst = s.nextID, cluster, home
	m.Kind, m.Size = noc.KindRequest, noc.RequestBytes
	if write {
		m.Kind, m.Size = noc.KindWriteback, noc.WritebackBytes
	}
	m.Payload = slot
	h.send(m)
	return true
}

// send injects m, queueing it only when the network (or queue order)
// requires: an uncontended destination goes straight into the fabric, so
// hubs that never see back pressure never claim an injection queue.
func (h *hub) send(m *noc.Message) {
	q := h.sys.outq.Get(h.id, m.Dst)
	if q == nil || q.Empty() {
		if h.sys.Net.Send(m) {
			return
		}
		if q == nil {
			q = h.sys.outq.Claim(h.id, m.Dst)
		}
		q.Push(m)
		h.armRetry(q, m.Dst)
		return
	}
	q.Push(m)
	h.pumpOut(q, m.Dst)
}

// armRetry arms the (single) injection retry poll for dst, whose queue is q.
// It is called right after the network refused q's head, so the poll
// carries that refusal's memo.
func (h *hub) armRetry(q *sim.PairQueue[*noc.Message], dst int) {
	if !q.Flag {
		q.Flag = true
		h.sys.schedulePoll(uint64(h.id)<<pollHubShift | uint64(dst)<<pollDstShift | uint64(refusalMemo(h.sys.epochs, h.id)))
	}
}

// schedulePoll queues poll p to run 2 cycles from now. It joins the newest
// run while that run's kernel event is still the tail of its bucket, so the
// poll holds exactly the FIFO position an event of its own would take, and
// otherwise starts a run with a new kernel event. Runs dispatch in the order
// they were created, so their members sit back to back in s.polls.
func (s *System) schedulePoll(p uint64) { s.polls.push(p | s.joinOrStartRun()) }

// joinOrStartRun places a poll due 2 cycles from now: it returns 0 when the
// poll joins the newest run, and otherwise schedules a new run's kernel
// event and returns pollRunStart for the poll's word.
func (s *System) joinOrStartRun() uint64 {
	at := s.K.Now() + 2
	if s.K.TailIs(at, (*pollEvent)(s)) {
		return 0
	}
	s.K.AtEvent(at, (*pollEvent)(s), 0)
	return pollRunStart
}

// refusalMemo identifies a hub's injection state for the refusal memo: the
// network's injection epoch for the hub (from the live slice epochs) plus
// one, in 32 bits (zero, after a wrap, means no memo). A head the network
// refused keeps being refused until the epoch moves, and truncating is safe
// because a false match would need 2^32 injection slots to free between two
// polls two cycles apart.
func refusalMemo(epochs []uint64, hub int) uint32 { return uint32(epochs[hub]) + 1 }

// pumpOut injects as many messages of q, dst's queue, as the network
// accepts, then arms a single retry poll on back pressure.
func (h *hub) pumpOut(q *sim.PairQueue[*noc.Message], dst int) {
	for !q.Empty() {
		if !h.sys.Net.Send(q.Front()) {
			h.armRetry(q, dst)
			return
		}
		q.Pop()
	}
}

// deliver handles a network arrival at this hub.
func (h *hub) deliver(m *noc.Message) {
	switch m.Kind {
	case noc.KindRequest, noc.KindWriteback:
		h.submitRemote(m)
	case noc.KindResponse:
		slot := m.Payload
		h.sys.Net.Consume(h.id, m) // recycles m; slot outlives it
		h.sys.retire(slot)
	default:
		panic(fmt.Sprintf("core: hub %d received unexpected %v", h.id, m.Kind))
	}
}

// submitRemote pushes a delivered request into the local memory controller,
// holding the network receive-buffer credit (and the message) until the
// controller accepts — that is how controller congestion back-pressures the
// interconnect.
func (h *hub) submitRemote(m *noc.Message) {
	if h.trySubmit(m.Payload, (*respondEvent)(h)) {
		h.sys.Net.Consume(h.id, m)
		return
	}
	h.sys.MCs[h.id].NotifySpaceEvent((*remoteRetryEvent)(h), h.sys.msgSlots.Put(m))
}

// submitLocal pushes a cluster-local request into the MC, retrying while
// the queue is full (the retry re-enters through submitLocalEvent; no
// message or credit is held for local transactions). Its completion
// crosses only the hub, not the network.
func (h *hub) submitLocal(slot uint64) {
	if h.trySubmit(slot, (*localDoneEvent)(h)) {
		return
	}
	h.sys.MCs[h.id].NotifySpaceEvent((*submitLocalEvent)(h), slot)
}

// trySubmit presents the parked transaction to the local controller. The
// request is stack-allocated: Submit copies it by value and the completion
// carries the transaction's slot, so the whole exchange allocates nothing.
func (h *hub) trySubmit(slot uint64, done sim.Handler) bool {
	t := h.sys.txnSlots.At(slot)
	req := memory.Request{
		ID:          t.id,
		Addr:        t.line * noc.LineBytes,
		Write:       t.write,
		DoneHandler: done,
		DoneData:    slot,
	}
	if t.write {
		req.ReqBytes = noc.WritebackBytes
		req.RspBytes = 0
	} else {
		req.ReqBytes = noc.RequestBytes
		req.RspBytes = noc.ResponseBytes
	}
	return h.sys.MCs[h.id].Submit(&req)
}

// respond sends the completion back to the requester (full line for reads, a
// small ack for writebacks); the transaction keeps its slot for the ride.
func (h *hub) respond(slot uint64) {
	t := h.sys.txnSlots.At(slot)
	m := h.sys.Net.Acquire()
	m.ID, m.Src, m.Dst = t.id, h.id, t.cluster
	m.Kind, m.Size = noc.KindResponse, noc.ResponseBytes
	if t.write {
		m.Size = noc.RequestBytes // write ack
	}
	m.Payload = slot
	h.send(m)
}

// retire completes the transaction parked in slot at its requesting
// cluster: MSHR entry (and all merged requesters) release, latency
// accounting, then the replay's issue resumes — or, on its last
// completion, the kernel stops, so the replay ends on the very event that
// completed it.
func (s *System) retire(slot uint64) {
	t := s.txnSlots.At(slot)
	cluster, write := t.cluster, t.write
	merged := s.hubs[cluster].mshr.Complete(t.line)
	lat := (s.K.Now() - t.issue).Ns()
	s.txnSlots.Free(slot)
	wire := uint64(noc.RequestBytes + noc.ResponseBytes)
	if write {
		wire = noc.WritebackBytes + noc.RequestBytes
	}
	for i := 0; i < merged; i++ {
		s.Latency.Observe(lat)
		s.completed++
	}
	s.WireBytes += wire
	if r := s.replay; r != nil {
		if s.completed >= r.requests {
			s.K.Stop()
		} else {
			r.pump(cluster)
		}
	}
}

// NetworkStats returns the interconnect's counters.
func (s *System) NetworkStats() noc.Stats { return s.Net.Stats() }

// MemoryBytesMoved sums controller traffic.
func (s *System) MemoryBytesMoved() uint64 {
	var total uint64
	for _, mc := range s.MCs {
		total += mc.BytesMoved
	}
	return total
}
