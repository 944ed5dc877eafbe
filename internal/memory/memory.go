// Package memory models Corona's off-stack memory system (Section 3.3,
// Table 4): one memory controller per cluster, each connected to optically
// connected memory (OCM) by a pair of single-waveguide 64-wavelength DWDM
// fibers, or — for the electrical baseline (ECM) — by a 12-bit full-duplex
// pin channel.
//
// OCM moves 160 GB/s per controller (10.24 TB/s aggregate) over a half-duplex
// fiber pair; ECM moves 15 GB/s per controller (0.96 TB/s aggregate) in
// total across its two directions. Both have a 20 ns access latency. The DRAM die is organized so
// an entire cache line is read from a single mat, so a small number of
// banks sustains line rate without opening kilobyte pages.
package memory

import (
	"fmt"
	"math"

	"corona/internal/sim"
)

// Config parameterizes one memory controller's external channel and DRAM.
type Config struct {
	Name string
	// HalfDuplex: commands and data share one link (OCM fiber loop). When
	// false, InBytesPerCycle and OutBytesPerCycle are independent directions.
	HalfDuplex bool
	// InBytesPerCycle is command/write bandwidth toward memory;
	// OutBytesPerCycle is read-data bandwidth from memory. For half-duplex
	// configurations only InBytesPerCycle is used, as the shared link rate.
	// Fractional rates express sub-5 GB/s pin channels.
	InBytesPerCycle  float64
	OutBytesPerCycle float64
	// AccessCycles is the DRAM access latency (the paper's 20 ns).
	AccessCycles sim.Time
	// Banks is the number of independent DRAM mats per controller; BankBusy
	// is each access's bank occupancy.
	Banks    int
	BankBusy sim.Time
	// BankShift selects the address bits used for bank interleaving within
	// a controller. The system interleaves lines across controllers in the
	// 6 bits above the 6-bit line offset, so banks must be chosen from bits
	// above both (shift 12), or every line homed at one controller would
	// land in the same bank.
	BankShift uint
	// QueueDepth bounds the controller's request queue; Submit refuses when
	// full (back pressure into the hub).
	QueueDepth int
	// DaisyChain is the number of OCM modules on the fiber loop; light passes
	// through each un-retimed, adding ChainHopCycles per traversed module.
	DaisyChain     int
	ChainHopCycles sim.Time
}

// OCMConfig returns the optically connected memory parameters: a fiber pair
// carrying 64 λ at 10 Gb/s dual-edge modulation = 32 B/cycle = 160 GB/s per
// controller, half duplex, 20 ns access.
func OCMConfig() Config {
	return Config{
		Name:            "ocm",
		HalfDuplex:      true,
		InBytesPerCycle: 32,
		AccessCycles:    sim.FromNs(20),
		Banks:           32,
		BankBusy:        16,
		BankShift:       12,
		QueueDepth:      64,
		DaisyChain:      1,
		ChainHopCycles:  1,
	}
}

// ECMConfig returns the electrical baseline: a 12-bit full-duplex channel at
// 10 Gb/s carrying 15 GB/s per controller in total (Table 4's 0.96 TB/s
// aggregate across 64 controllers counts both directions, exactly as OCM's
// 160 GB/s counts the fiber pair's total), i.e. 7.5 GB/s = 1.5 B/cycle per
// direction, 20 ns access. The ITRS pin budget (1536 pins for 64 such
// channels) makes anything faster infeasible.
func ECMConfig() Config {
	return Config{
		Name:             "ecm",
		HalfDuplex:       false,
		InBytesPerCycle:  1.5,
		OutBytesPerCycle: 1.5,
		AccessCycles:     sim.FromNs(20),
		Banks:            32,
		BankBusy:         16,
		BankShift:        12,
		QueueDepth:       64,
	}
}

// PerControllerBytesPerSec returns one controller's peak total bandwidth in
// bytes/second: the shared-link rate for half duplex, the sum of both
// directions for full duplex (Table 4 counts both the same way).
func (c Config) PerControllerBytesPerSec() float64 {
	bpc := c.InBytesPerCycle
	if !c.HalfDuplex {
		bpc += c.OutBytesPerCycle
	}
	return bpc * 5e9
}

// Validate reports whether c describes a buildable controller: a positive,
// finite link rate (and read-data rate on a full-duplex channel), at least
// one bank and a positive queue depth. A non-finite rate is rejected in
// either mode: it would schedule transfers at no meaningful cycle, and the
// configuration's JSON encoding (the sweep cache and pool key) would fail.
func (c Config) Validate() error {
	rate := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	switch {
	case !rate(c.InBytesPerCycle) || c.Banks <= 0 || c.QueueDepth <= 0:
		return fmt.Errorf("memory: invalid config %+v", c)
	case !c.HalfDuplex && !rate(c.OutBytesPerCycle):
		return fmt.Errorf("memory: full-duplex config needs a positive, finite OutBytesPerCycle, got %v", c.OutBytesPerCycle)
	case math.IsNaN(c.OutBytesPerCycle) || math.IsInf(c.OutBytesPerCycle, 0):
		return fmt.Errorf("memory: non-finite OutBytesPerCycle %v", c.OutBytesPerCycle)
	}
	return nil
}

// AggregateBytesPerSec returns the 64-controller aggregate bandwidth.
func (c Config) AggregateBytesPerSec(controllers int) float64 {
	return c.PerControllerBytesPerSec() * float64(controllers)
}

// Request is one memory transaction submitted by the hub. Submit copies what
// the completion needs into the controller's in-flight registry and never
// retains the pointer, so callers may pass a stack-allocated Request — the
// hub's per-transaction submissions heap-allocate nothing.
type Request struct {
	ID    uint64
	Addr  uint64
	Write bool
	// Bytes on the wire: command+address for reads, command+line for writes
	// inbound; the line outbound for reads.
	ReqBytes int
	RspBytes int
	// DoneHandler, when non-nil, is told when the transaction completes (data
	// returned for reads, write committed for writes):
	// DoneHandler.OnEvent(now, DoneData) runs with no closure allocated.
	DoneHandler sim.Handler
	DoneData    uint64
}

// link is a serially reusable channel resource. Because the controller
// schedules future data returns at submit time, the link keeps a gap list of
// booked windows rather than a single high-water mark: a command issued now
// must be able to slip in front of a data transfer booked for 100 cycles
// from now, or the half-duplex fiber degenerates into one transaction at a
// time.
//
// The list holds busy time, not bookings: a new window that touches a
// neighbour joins it, so back-to-back transfers stay one window and the
// search walks gaps instead of every queued transfer. Every window is at
// least one cycle long, so the first fit depends only on the union of
// busy time, and merging changes no booking.
type link struct {
	booked []ival // sorted, disjoint, non-adjacent busy windows
}

type ival struct {
	start, end sim.Time
}

// reserve books the earliest window of `bytes` starting at or after `at`,
// pruning windows that ended before `now`. It returns the [start, end)
// occupancy.
func (l *link) reserve(now, at sim.Time, bytes int, bytesPerCycle float64) (start, end sim.Time) {
	// Prune history: nothing will ever be requested before now again.
	i := 0
	for i < len(l.booked) && l.booked[i].end <= now {
		i++
	}
	if i > 0 {
		l.booked = append(l.booked[:0], l.booked[i:]...)
	}

	dur := sim.Time(float64(bytes) / bytesPerCycle)
	if float64(dur) < float64(bytes)/bytesPerCycle {
		dur++
	}
	t := at
	if t < now {
		t = now
	}
	idx := len(l.booked)
	for j, iv := range l.booked {
		if iv.start >= t+dur {
			idx = j
			break
		}
		if iv.end > t {
			t = iv.end
		}
	}
	end = t + dur
	joinPrev := idx > 0 && l.booked[idx-1].end == t
	joinNext := idx < len(l.booked) && l.booked[idx].start == end
	switch {
	case joinPrev && joinNext:
		l.booked[idx-1].end = l.booked[idx].end
		l.booked = append(l.booked[:idx], l.booked[idx+1:]...)
	case joinPrev:
		l.booked[idx-1].end = end
	case joinNext:
		l.booked[idx].start = t
	default:
		l.booked = append(l.booked, ival{})
		copy(l.booked[idx+1:], l.booked[idx:])
		l.booked[idx] = ival{start: t, end: end}
	}
	return t, end
}

// inflightReq is what the finish event needs of one submitted transaction:
// its completion handler and data word and its bytes on the wire. Copying
// these out of the Request keeps the caller's Request from escaping.
type inflightReq struct {
	done     sim.Handler
	doneData uint64
	bytes    uint64
}

// spaceWaiter is one queued NotifySpaceEvent registration.
type spaceWaiter struct {
	h    sim.Handler
	data uint64
}

// finishEvent is the controller's typed completion handler: it fires at a
// transaction's finish time with the inflight slot index as data.
type finishEvent Controller

func (e *finishEvent) OnEvent(now sim.Time, data uint64) {
	c := (*Controller)(e)
	f := c.inflight.Take(data)
	c.queued--
	if !c.waiters.Empty() {
		w := c.waiters.Pop()
		c.k.ScheduleEvent(0, w.h, w.data)
	}
	c.Served++
	c.BytesMoved += f.bytes
	if f.done != nil {
		f.done.OnEvent(now, f.doneData)
	}
}

// Controller is one cluster's memory controller plus its external channel
// and DRAM banks. The controller is the bus master: all channel scheduling is
// done here, with no arbitration (Section 3.3).
type Controller struct {
	k   *sim.Kernel
	cfg Config
	id  int

	inLink  link // commands/writes toward memory (shared link if half duplex)
	outLink *link

	banks []sim.Time // per-bank busy-until

	queued  int
	waiters sim.Fifo[spaceWaiter]

	// inflight parks each transaction's completion for the typed finish
	// event.
	inflight sim.Slots[inflightReq]

	// Stats.
	Served     uint64
	BytesMoved uint64
}

// NewController builds controller id with config cfg on kernel k.
func NewController(k *sim.Kernel, cfg Config, id int) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{k: k, cfg: cfg, id: id, banks: make([]sim.Time, cfg.Banks)}
	// The booking lists start empty and grow by append. They hold busy time,
	// so a few windows cover even a full queue, and Reset keeps what they
	// grew.
	if cfg.HalfDuplex {
		c.outLink = &c.inLink // shared fiber loop
	} else {
		c.outLink = &link{}
	}
	return c
}

// QueueLen returns the number of in-flight transactions.
func (c *Controller) QueueLen() int { return c.queued }

// Reset returns the controller to its just-constructed state, keeping grown
// storage so a pooled controller's next run allocates nothing.
func (c *Controller) Reset() {
	c.inLink.booked = c.inLink.booked[:0]
	if !c.cfg.HalfDuplex {
		c.outLink.booked = c.outLink.booked[:0]
	}
	clear(c.banks)
	c.queued = 0
	c.waiters.Reset()
	c.inflight.Reset()
	c.Served, c.BytesMoved = 0, 0
}

// chainDelay is the extra propagation from daisy-chained OCM modules: the
// light passes through each module un-buffered, so the delay is small and
// uniform across modules (Section 3.3 / Figure 6c).
func (c *Controller) chainDelay() sim.Time {
	if c.cfg.DaisyChain <= 1 {
		return 0
	}
	return sim.Time(c.cfg.DaisyChain-1) * c.cfg.ChainHopCycles
}

// Submit enqueues a transaction. It returns false when the controller queue
// is full; the hub must retry (back pressure).
func (c *Controller) Submit(r *Request) bool {
	if r.ReqBytes <= 0 || (!r.Write && r.RspBytes <= 0) {
		// Box a copy, not r itself: keeping the pointer out of the panic
		// argument lets escape analysis stack-allocate callers' Requests.
		panic(fmt.Sprintf("memory: invalid request %+v", *r))
	}
	if c.queued >= c.cfg.QueueDepth {
		return false
	}
	c.queued++
	f := inflightReq{done: r.DoneHandler, doneData: r.DoneData,
		bytes: uint64(r.ReqBytes + r.RspBytes)}

	// 1. Command (and write data) transfer toward memory.
	_, cmdEnd := c.inLink.reserve(c.k.Now(), c.k.Now(), r.ReqBytes, c.cfg.InBytesPerCycle)

	// 2. Bank access: earliest-available bank selected by address.
	bank := int((r.Addr >> c.cfg.BankShift) % uint64(len(c.banks)))
	bankStart := cmdEnd + c.chainDelay()
	if c.banks[bank] > bankStart {
		bankStart = c.banks[bank]
	}
	c.banks[bank] = bankStart + c.cfg.BankBusy
	accessDone := bankStart + c.cfg.AccessCycles

	if r.Write {
		c.k.AtEvent(accessDone, (*finishEvent)(c), c.inflight.Put(f))
		return true
	}
	// 3. Read data return on the outbound direction (or the shared fiber).
	bpc := c.cfg.OutBytesPerCycle
	if c.cfg.HalfDuplex {
		bpc = c.cfg.InBytesPerCycle
	}
	_, dataEnd := c.outLink.reserve(c.k.Now(), accessDone+c.chainDelay(), r.RspBytes, bpc)
	c.k.AtEvent(dataEnd, (*finishEvent)(c), c.inflight.Put(f))
	return true
}

// NotifySpaceEvent registers a one-shot event, replacing poll-and-retry at
// the hub: h.OnEvent(now, data) fires as soon as a queue slot is (or
// becomes) available. Waiters fire in registration order, one per
// retirement.
func (c *Controller) NotifySpaceEvent(h sim.Handler, data uint64) {
	if c.queued < c.cfg.QueueDepth {
		c.k.ScheduleEvent(0, h, data)
		return
	}
	c.waiters.Push(spaceWaiter{h: h, data: data})
}
