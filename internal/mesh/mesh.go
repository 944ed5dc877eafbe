// Package mesh models the electrical 2D mesh baselines of the paper's
// evaluation (Section 4): HMesh (1.28 TB/s bisection) and LMesh (0.64 TB/s
// bisection), both with 5 clocks of per-hop latency (forwarding plus signal
// propagation) and dimension-order wormhole routing [Dally & Seitz].
//
// The model is packet-granularity virtual cut-through over per-link FIFOs —
// the standard fidelity for this kind of system study. A packet of S bytes
// occupies each link on its path for ceil(S/W) cycles (W = link width in
// bytes/cycle), its head advances one hop per HopLatency, and finite input
// buffers exert credit-based back pressure upstream. Requests and responses
// travel in separate virtual networks (message classes) so that a stalled
// response never deadlocks against the requests that caused it; the physical
// link bandwidth is shared round-robin between the classes.
package mesh

import (
	"fmt"

	"corona/internal/noc"
	"corona/internal/sim"
)

// Config parameterizes a mesh.
type Config struct {
	Name          string
	Width, Height int // routers; clusters = Width*Height
	BytesPerCycle int // link bandwidth (16 for HMesh, 8 for LMesh)
	HopLatency    sim.Time
	LinkBuffer    int // input buffer per link per class, in packets
	InjectQueue   int // per-cluster injection FIFO depth (per class)
	RecvBuffer    int // per-cluster ejection buffer (credit pool for the hub)
}

// HMeshConfig returns the high-performance mesh: 16 B/cycle links give an
// 8x8 mesh a 1.28 TB/s bisection at 5 GHz.
func HMeshConfig() Config {
	return Config{
		Name: "hmesh", Width: 8, Height: 8,
		BytesPerCycle: 16, HopLatency: 5,
		LinkBuffer: 4, InjectQueue: 8, RecvBuffer: 16,
	}
}

// LMeshConfig returns the low-performance mesh: half the link width,
// 0.64 TB/s bisection.
func LMeshConfig() Config {
	c := HMeshConfig()
	c.Name = "lmesh"
	c.BytesPerCycle = 8
	return c
}

// BisectionTBs returns the mesh bisection bandwidth in TB/s at 5 GHz (both
// directions across the vertical cut).
func (c Config) BisectionTBs() float64 {
	links := 2 * c.Height // both directions across the cut
	return float64(links*c.BytesPerCycle) * 5e9 / 1e12
}

// dir indexes a router's output ports.
type dir uint8

const (
	dirEast dir = iota
	dirWest
	dirNorth
	dirSouth
	dirEject
	numDirs
)

const numClasses = 2 // virtual networks: 0 = request-like, 1 = response-like

// classOf maps message kinds onto virtual networks.
func classOf(k noc.Kind) int {
	switch k {
	case noc.KindResponse, noc.KindInvalidateAck:
		return 1
	default:
		return 0
	}
}

// packet is one in-flight message's state. It lives by value in the mesh's
// arena from Send to eject, and its arena index is its handle in the port
// queues and in the hop, tail and eject event data. The route is not
// stored: each hop asks toward for the next dimension-order port.
type packet struct {
	m     *noc.Message
	at    portRef // the port whose queue holds the packet, or that granted it
	up    uint64  // credit target when the tail leaves at: upstream packRef, or tailInject|src
	dst   int
	class int
	ser   sim.Time // link occupancy, ceil(Size / BytesPerCycle)
}

type portRef struct {
	router int
	d      dir
}

type outPort struct {
	busyUntil sim.Time
	wakeAt    sim.Time // earliest pending wake event, to dedupe
	wakeSet   bool
	q         [numClasses]sim.Fifo[uint32] // arena indices
	credits   [numClasses]int
	rr        int
	used      bool // queued a packet since the last Reset
}

// Mesh implements noc.Network.
type Mesh struct {
	noc.Endpoints // pool, delivery, injection epochs and counters

	k   *sim.Kernel
	cfg Config

	// col and row are each router's coordinates, for routing and Hops;
	// step is the router-index offset of the neighbour behind each link
	// direction.
	col, row []int
	step     [numDirs]int

	// ports is the flat [router][dir] output-port array, laid out
	// router-major (index router*numDirs + dir): one contiguous block, so
	// the per-hop pipeline pays a single bounds check and no pointer chase
	// per port access.
	ports []outPort
	// used lists the ports that queued a packet since the last Reset. Every
	// other port change (a grant, a wake, a returned credit) follows a
	// packet queued there, so these are the only ports Reset restores.
	used []int32
	// credits is a port's per-class credit count at construction, by
	// direction.
	credits [numDirs]int
	// injectCount tracks packets still in their source's injection queue
	// per cluster per class against InjectQueue, laid out cluster-major
	// (cluster*numClasses + class).
	injectCount []int

	// pkts is the packet arena: every in-flight packet, by value. Once it
	// has grown to the peak in-flight population, the Send→eject cycle
	// allocates nothing.
	pkts sim.Slots[packet]
}

var _ noc.Network = (*Mesh)(nil)

// Mesh kernel events run on the typed fast path via named views of the Mesh:
// port references, classes, and packet arena indices pack into the data word,
// so the per-hop pipeline — the busiest scheduler client in the mesh
// configurations — allocates nothing in steady state.

// refBits is the width of a packed port reference: dir in the low 3 bits,
// router in the 16 above it (New caps meshes at 1<<16 routers).
const (
	refBits = 3 + 16
	refMask = 1<<refBits - 1
)

// packRef packs an output-port reference into the low refBits of a handler
// data word.
func packRef(ref portRef) uint64 { return uint64(ref.router)<<3 | uint64(ref.d) }

func unpackRef(data uint64) portRef {
	return portRef{router: int(data >> 3 & (refMask >> 3)), d: dir(data & 7)}
}

// A tail event's data word: the credit target's port reference, or the
// source cluster when tailInject is set, in the low refBits; the class;
// the flags; the granted port's reference (tailWake); and the packet's
// arena index (tailHop).
const (
	tailClassShift = refBits
	tailInject     = 1 << (refBits + 1)
	tailWake       = 1 << (refBits + 2)
	tailHop        = 1 << (refBits + 3)
	tailRefShift   = refBits + 4
	tailSlotShift  = tailRefShift + refBits
	maxTailSlot    = 1<<(64-tailSlotShift) - 1
)

// port returns the output port at (router, d) in the flat array.
func (m *Mesh) port(router int, d dir) *outPort {
	return &m.ports[router*int(numDirs)+int(d)]
}

// wakeEvent is a deferred tryGrant on a busy port.
type wakeEvent Mesh

func (e *wakeEvent) OnEvent(now sim.Time, data uint64) {
	(*Mesh)(e).wakeUp(now, unpackRef(data))
}

func (m *Mesh) wakeUp(now sim.Time, ref portRef) {
	p := m.port(ref.router, ref.d)
	if p.wakeAt == now {
		p.wakeSet = false
	}
	m.tryGrant(ref)
}

// tailEvent runs everything due when a granted packet's tail leaves its
// port, in the order separate events would have run: it returns the
// upstream input-buffer credit (or frees the source's injection slot),
// then advances the head when it reaches the next router at the
// same cycle (tailHop), then wakes the port as its link frees (tailWake).
// grant schedules nothing else in between, so the folded parts hold the
// FIFO positions their own events would have taken.
type tailEvent Mesh

func (e *tailEvent) OnEvent(now sim.Time, data uint64) {
	m := (*Mesh)(e)
	class := int(data >> tailClassShift & 1)
	if data&tailInject != 0 {
		src := int(data & refMask)
		m.injectCount[src*numClasses+class]--
		m.SlotFreed(src)
	} else {
		up := unpackRef(data)
		m.port(up.router, up.d).credits[class]++
		m.tryGrant(up)
	}
	var folded uint64
	if data&tailHop != 0 {
		m.hop(data >> tailSlotShift)
		folded++
	}
	if data&tailWake != 0 {
		m.wakeUp(now, unpackRef(data>>tailRefShift))
		folded++
	}
	m.k.CountExecuted(folded)
}

// hopEvent advances a packet's head into the next router (cut-through).
type hopEvent Mesh

func (e *hopEvent) OnEvent(_ sim.Time, data uint64) { (*Mesh)(e).hop(data) }

// hop moves packet idx from the port it was granted on into the neighbour
// router, queueing it at that router's next dimension-order port.
func (m *Mesh) hop(idx uint64) {
	p := m.pkts.At(idx)
	r := p.at.router + m.step[p.at.d]
	p.up = packRef(p.at)
	p.at = portRef{r, m.toward(r, p.dst)}
	m.push(p.at, p.class, idx)
	m.tryGrant(p.at)
}

// push queues packet idx of class at port ref, recording the port as used.
func (m *Mesh) push(ref portRef, class int, idx uint64) {
	i := ref.router*int(numDirs) + int(ref.d)
	port := &m.ports[i]
	if !port.used {
		port.used = true
		m.used = append(m.used, int32(i))
	}
	port.q[class].Push(uint32(idx))
}

// ejectEvent delivers a packet's tail into the destination hub. The packet
// leaves the arena here, before Deliver, which may Send again; the message
// itself stays live until the hub's Consume.
type ejectEvent Mesh

func (e *ejectEvent) OnEvent(_ sim.Time, data uint64) {
	m := (*Mesh)(e)
	msg := m.pkts.At(data).m
	m.pkts.Free(data)
	m.Deliver(msg)
}

// New builds a mesh on kernel k.
func New(k *sim.Kernel, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.BytesPerCycle <= 0 ||
		cfg.LinkBuffer <= 0 || cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		panic(fmt.Sprintf("mesh: invalid config %+v", cfg))
	}
	n := cfg.Width * cfg.Height
	if n > 1<<16 {
		// Event data words carry router and cluster ids in 16-bit
		// fields (packRef, tailEvent); beyond them, ids would silently
		// alias.
		panic(fmt.Sprintf("mesh: %dx%d exceeds the %d-router event encoding limit",
			cfg.Width, cfg.Height, 1<<16))
	}
	m := &Mesh{
		Endpoints:   noc.NewEndpoints(k, cfg.Name, n),
		k:           k,
		cfg:         cfg,
		ports:       make([]outPort, n*int(numDirs)),
		injectCount: make([]int, n*numClasses),
		col:         make([]int, n),
		row:         make([]int, n),
		step:        [numDirs]int{dirEast: 1, dirWest: -1, dirNorth: -cfg.Width, dirSouth: cfg.Width},
	}
	for r := 0; r < n; r++ {
		m.col[r], m.row[r] = r%cfg.Width, r/cfg.Width
	}
	for d := range m.credits {
		m.credits[d] = cfg.LinkBuffer
	}
	// Eject credits are shared across classes through the hub's receive
	// buffer; split the pool evenly.
	m.credits[dirEject] = cfg.RecvBuffer / numClasses
	for i := range m.ports {
		m.ports[i].reset(m.credits[i%int(numDirs)])
	}
	return m
}

// reset restores the port to its construction state with the given
// credits per class, keeping its queues' grown capacity.
func (p *outPort) reset(credits int) {
	p.busyUntil, p.wakeAt, p.wakeSet, p.rr, p.used = 0, 0, false, 0, false
	for c := range p.q {
		p.q[c].Reset()
		p.credits[c] = credits
	}
}

// Reset implements noc.Resetter: restore the construction state in place,
// keeping the message pool, packet arena, and grown queue capacity. Only
// the ports the last cell queued packets on are touched. Delivery
// callbacks are left installed; a reusing System overwrites them via
// SetDeliver.
func (m *Mesh) Reset() {
	for _, i := range m.used {
		m.ports[i].reset(m.credits[i%int32(numDirs)])
	}
	m.used = m.used[:0]
	clear(m.injectCount)
	m.pkts.Reset()
	m.Endpoints.Reset()
}

// toward returns the dimension-order (X then Y) output port at router r
// for a packet bound to dst: east or west until the column matches, then
// south or north until the row does, then ejection.
func (m *Mesh) toward(r, dst int) dir {
	if x, dx := m.col[r], m.col[dst]; x != dx {
		if x < dx {
			return dirEast
		}
		return dirWest
	}
	if y, dy := m.row[r], m.row[dst]; y != dy {
		if y < dy {
			return dirSouth
		}
		return dirNorth
	}
	return dirEject
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Hops returns the link-traversal count between two clusters (excluding
// ejection), used by the 196 pJ/hop power model.
func (m *Mesh) Hops(src, dst int) int {
	return abs(m.col[dst]-m.col[src]) + abs(m.row[dst]-m.row[src])
}

// Send implements noc.Network.
func (m *Mesh) Send(msg *noc.Message) bool {
	m.Check(msg)
	cl := classOf(msg.Kind)
	if m.injectCount[msg.Src*numClasses+cl] >= m.cfg.InjectQueue {
		return false
	}
	msg.Hops = m.Hops(msg.Src, msg.Dst)
	m.injectCount[msg.Src*numClasses+cl]++
	first := portRef{msg.Src, m.toward(msg.Src, msg.Dst)}
	bpc := m.cfg.BytesPerCycle
	//lint:allow poolflow Send is the arena's one construction site: a packet is parked here and freed at eject
	idx := m.pkts.Put(packet{m: msg, at: first, up: tailInject | uint64(msg.Src),
		dst: msg.Dst, class: cl, ser: sim.Time((msg.Size + bpc - 1) / bpc)})
	if idx > maxTailSlot {
		panic(fmt.Sprintf("mesh: %d packets in flight exceed the tail event's index field", idx+1))
	}
	m.push(first, cl, idx)
	m.tryGrant(first)
	return true
}

// Consume implements noc.Network: the hub drained msg, freeing its slot in
// the ejection buffer of msg's virtual network and recycling the message.
func (m *Mesh) Consume(cluster int, msg *noc.Message) {
	class := classOf(msg.Kind)
	m.Release(msg)
	port := m.port(cluster, dirEject)
	port.credits[class]++
	m.tryGrant(portRef{cluster, dirEject})
}

// tryGrant attempts to start the next eligible packet on a port, observing
// link occupancy, class round-robin, and downstream credits.
func (m *Mesh) tryGrant(ref portRef) {
	port := m.port(ref.router, ref.d)
	now := m.k.Now()
	if port.busyUntil > now {
		if armWake(port, port.busyUntil) {
			m.k.AtEvent(port.busyUntil, (*wakeEvent)(m), packRef(ref))
		}
		return
	}
	// Round-robin over classes, skipping empty queues and exhausted credits.
	cl := port.rr
	for i := 0; i < numClasses; i++ {
		if !port.q[cl].Empty() && port.credits[cl] != 0 {
			port.rr = (cl + 1) & (numClasses - 1)
			m.grant(ref, port, uint64(port.q[cl].Pop()))
			return
		}
		cl = (cl + 1) & (numClasses - 1)
	}
}

// armWake records a deferred tryGrant of port at time at and reports
// whether the caller must schedule it: a pending wake at or before at
// already covers it. The wake compares the port's wakeAt against its own
// firing time, which is exactly the at it was armed for.
func armWake(port *outPort, at sim.Time) bool {
	if port.wakeSet && port.wakeAt <= at {
		return false
	}
	port.wakeSet = true
	port.wakeAt = at
	return true
}

func (m *Mesh) grant(ref portRef, port *outPort, idx uint64) {
	p := m.pkts.At(idx)
	s := p.ser
	port.busyUntil = m.k.Now() + s
	port.credits[p.class]--

	// The upstream input-buffer slot (previous link's credit), or the
	// source's injection slot, frees when the packet's tail leaves this
	// router, and the link frees with it: one tail event does both.
	tail := uint64(p.class)<<tailClassShift | p.up
	if ref.d != dirEject && s == m.cfg.HopLatency {
		// The head reaches the next router as the tail leaves: the hop
		// folds into the tail event too.
		tail |= tailHop | idx<<tailSlotShift
	}
	if armWake(port, port.busyUntil) {
		tail |= tailWake | packRef(ref)<<tailRefShift
	}
	m.k.ScheduleEvent(s, (*tailEvent)(m), tail)

	if ref.d == dirEject {
		// Tail reaches the hub after head latency plus serialization.
		m.k.ScheduleEvent(m.cfg.HopLatency+s, (*ejectEvent)(m), idx)
	} else if tail&tailHop == 0 {
		// Head arrives at the next router after HopLatency (cut-through).
		m.k.ScheduleEvent(m.cfg.HopLatency, (*hopEvent)(m), idx)
	}
}
