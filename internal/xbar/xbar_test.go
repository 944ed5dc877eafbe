package xbar

import (
	"testing"
	"testing/quick"

	"corona/internal/noc"
	"corona/internal/photonic"
	"corona/internal/sim"
)

// harness wires a crossbar with auto-consuming sinks that record arrivals.
type harness struct {
	k    *sim.Kernel
	x    *Crossbar
	got  []*noc.Message
	when []sim.Time
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel()}
	h.x = New(h.k, cfg)
	for c := 0; c < cfg.Clusters; c++ {
		c := c
		h.x.SetDeliver(c, func(m *noc.Message) {
			h.got = append(h.got, m)
			h.when = append(h.when, h.k.Now())
			h.x.Consume(c, m)
		})
	}
	return h
}

func msg(id uint64, src, dst, size int) *noc.Message {
	return &noc.Message{ID: id, Src: src, Dst: dst, Size: size, Kind: noc.KindRequest}
}

func TestSingleMessageLatency(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	if !h.x.Send(msg(1, 10, 20, 64)) {
		t.Fatal("Send refused on empty queue")
	}
	h.k.Run()
	if len(h.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(h.got))
	}
	// Latency = token wait (<=8) + 1 cycle tx + propagation (<=8).
	lat := h.when[0]
	if lat < 1 || lat > 17 {
		t.Errorf("64 B message latency = %d cycles, want within [1,17]", lat)
	}
}

func TestCacheLineOneCycleSerialization(t *testing.T) {
	// "A 64-byte cache line can be sent ... in one 5 GHz clock."
	h := newHarness(t, DefaultConfig())
	h.x.Send(msg(1, 1, 2, 64))
	h.k.Run()
	// src=1 -> dst=2: distance 1, propagation 1 cycle, tx 1 cycle. Token for
	// channel 2 starts at position 2 and must loop to 1: floor(63/8) = 7.
	want := sim.Time(7 + 1 + 1)
	if h.when[0] != want {
		t.Errorf("delivery at %d, want %d (token 7 + tx 1 + prop 1)", h.when[0], want)
	}
}

func TestPropagationBounds(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	for d := 0; d < 64; d++ {
		for s := 0; s < 64; s++ {
			if s == d {
				continue
			}
			p := h.x.propagation(s, d)
			if p < 1 || p > 8 {
				t.Fatalf("propagation(%d,%d) = %d, want in [1,8]", s, d, p)
			}
		}
	}
	if h.x.propagation(63, 0) != 1 {
		t.Errorf("adjacent upstream writer should see 1 cycle, got %d", h.x.propagation(63, 0))
	}
	// A writer just downstream of home must traverse nearly the whole ring.
	if h.x.propagation(1, 0) != 8 {
		t.Errorf("farthest writer should see 8 cycles, got %d", h.x.propagation(1, 0))
	}
}

func TestLocalTrafficPanics(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("src==dst Send did not panic")
		}
	}()
	h.x.Send(msg(1, 5, 5, 64))
}

func TestInjectionQueueBackPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectQueue = 2
	h := newHarness(t, cfg)
	if !h.x.Send(msg(1, 0, 1, 64)) || !h.x.Send(msg(2, 0, 1, 64)) {
		t.Fatal("queue refused before capacity")
	}
	if h.x.Send(msg(3, 0, 1, 64)) {
		t.Fatal("queue accepted beyond capacity")
	}
	h.k.Run()
	if len(h.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(h.got))
	}
	// After draining, sends are accepted again.
	if !h.x.Send(msg(4, 0, 1, 64)) {
		t.Fatal("queue still refusing after drain")
	}
}

func TestManyWritersOneReaderSerializes(t *testing.T) {
	// All 63 other clusters send a line to cluster 0; the channel moves one
	// line per cycle, so total time is at least 63 cycles of occupancy and
	// deliveries never overlap in a way that exceeds channel bandwidth.
	h := newHarness(t, DefaultConfig())
	for s := 1; s < 64; s++ {
		if !h.x.Send(msg(uint64(s), s, 0, 64)) {
			t.Fatalf("send from %d refused", s)
		}
	}
	h.k.Run()
	if len(h.got) != 63 {
		t.Fatalf("delivered %d, want 63", len(h.got))
	}
	if c := h.x.Stats().ChannelCycles; c != 63 {
		t.Errorf("ChannelCycles = %d, want 63 (one per line)", c)
	}
	end := h.when[len(h.when)-1]
	if end < 63 {
		t.Errorf("63 lines finished in %d cycles; channel bandwidth exceeded", end)
	}
	// Token hand-offs between neighbours are ~1 cycle, so the whole drain
	// should be well under 3 cycles per message.
	if end > 63*3 {
		t.Errorf("drain took %d cycles; arbitration overhead too high", end)
	}
}

func TestDistinctChannelsParallel(t *testing.T) {
	// 32 disjoint pairs transfer simultaneously: total time should be close
	// to a single transfer, not 32 of them.
	h := newHarness(t, DefaultConfig())
	for i := 0; i < 32; i++ {
		src, dst := 2*i, 2*i+1
		h.x.Send(msg(uint64(i), src, dst, 64))
	}
	h.k.Run()
	if len(h.got) != 32 {
		t.Fatalf("delivered %d, want 32", len(h.got))
	}
	if h.k.Now() > 20 {
		t.Errorf("32 parallel transfers took %d cycles, want <= 20 (channels are independent)", h.k.Now())
	}
}

func TestReceiveBufferBackPressure(t *testing.T) {
	// A sink that never consumes stalls writers after RecvBuffer deliveries.
	cfg := DefaultConfig()
	cfg.RecvBuffer = 4
	cfg.InjectQueue = 16
	k := sim.NewKernel()
	x := New(k, cfg)
	var delivered int
	for c := 0; c < cfg.Clusters; c++ {
		x.SetDeliver(c, func(m *noc.Message) { delivered++ })
	}
	for i := 0; i < 10; i++ {
		if !x.Send(msg(uint64(i), 1, 0, 64)) {
			t.Fatalf("send %d refused", i)
		}
	}
	k.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d with stalled sink, want 4 (RecvBuffer)", delivered)
	}
	// Consuming frees credits and restarts the pipeline.
	x.Consume(0, msg(100, 1, 0, 64))
	k.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d after one Consume, want 5", delivered)
	}
	for i := 0; i < 5; i++ {
		x.Consume(0, msg(101, 1, 0, 64))
	}
	k.Run()
	if delivered != 10 {
		t.Fatalf("delivered %d after full drain, want 10", delivered)
	}
}

func TestMultiMessageSizes(t *testing.T) {
	// A 16 B request still costs a full cycle; a 128 B message costs two.
	h := newHarness(t, DefaultConfig())
	h.x.Send(msg(1, 3, 4, 16))
	h.x.Send(msg(2, 3, 4, 128))
	h.k.Run()
	if c := h.x.Stats().ChannelCycles; c != 1+2 {
		t.Errorf("ChannelCycles = %d, want 3", c)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.x.Send(msg(1, 0, 1, 16))
	h.x.Send(msg(2, 1, 0, 72))
	h.k.Run()
	s := h.x.Stats()
	if s.Messages != 2 || s.Bytes != 88 || s.ChannelCycles != 1+2 {
		t.Errorf("stats = %+v, want 2 messages / 88 bytes / 3 channel cycles", s)
	}
	if u := float64(s.ChannelCycles) / (float64(h.k.Now()) * 64); u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want in (0,1]", u)
	}
}

// Property: every sent message is delivered exactly once with a consuming
// sink, regardless of traffic pattern, and delivery time >= inject time.
func TestDeliveryCompleteness(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rng := sim.NewRand(seed)
		k := sim.NewKernel()
		cfg := DefaultConfig()
		cfg.InjectQueue = 200 // accept everything up front
		x := New(k, cfg)
		seen := make(map[uint64]int)
		for c := 0; c < cfg.Clusters; c++ {
			c := c
			x.SetDeliver(c, func(m *noc.Message) {
				seen[m.ID]++
				x.Consume(c, m)
			})
		}
		for i := 0; i < n; i++ {
			src := rng.Intn(64)
			dst := rng.Intn(63)
			if dst >= src {
				dst++
			}
			size := 16 + rng.Intn(112)
			if !x.Send(msg(uint64(i), src, dst, size)) {
				return false
			}
		}
		if k.RunLimit(2_000_000) >= 2_000_000 {
			return false
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pumper sends a 64-byte line along the (src<<8 | dst) pair in its data word:
// again next cycle when the crossbar accepts it, in 2 cycles when it refuses.
type pumper struct {
	k  *sim.Kernel
	x  *Crossbar
	id uint64
}

func (p *pumper) OnEvent(_ sim.Time, pair uint64) {
	p.id++
	if p.x.Send(msg(p.id, int(pair>>8), int(pair&0xff), 64)) {
		p.k.ScheduleEvent(1, p, pair)
	} else {
		p.k.ScheduleEvent(2, p, pair)
	}
}

// stopEvent ends a saturation run: scheduled at horizon+1 before any traffic
// lands there, it lets every event through the horizon run, then stops.
type stopEvent struct{ k *sim.Kernel }

func (s stopEvent) OnEvent(sim.Time, uint64) { s.k.Stop() }

func TestAggregateBandwidth(t *testing.T) {
	// Saturating all 64 channels simultaneously should sustain ~64 B/cycle
	// per channel: with 63 writers per channel sending back-to-back lines the
	// crossbar must move close to 20.48 TB/s in aggregate.
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InjectQueue = 4
	x := New(k, cfg)
	var delivered uint64
	for c := 0; c < 64; c++ {
		c := c
		x.SetDeliver(c, func(m *noc.Message) {
			delivered += uint64(m.Size)
			x.Consume(c, m)
		})
	}
	// Keep the network saturated via retrying senders: every cluster writes
	// every channel, so the token hops between adjacent requesters and the
	// hand-off cost is sub-cycle.
	p := &pumper{k: k, x: x}
	for c := 0; c < 64; c++ {
		for s := 0; s < 64; s++ {
			if s != c {
				p.OnEvent(0, uint64(s)<<8|uint64(c))
			}
		}
	}
	const horizon = 2000
	k.AtEvent(horizon+1, stopEvent{k}, 0)
	k.Run()
	perChannelBytesPerCycle := float64(delivered) / horizon / 64
	// Perfect is 64 B/cycle; arbitration hand-off costs a little.
	if perChannelBytesPerCycle < 48 {
		t.Errorf("sustained %.1f B/cycle/channel, want >= 48 (near line rate)", perChannelBytesPerCycle)
	}
}

// TestDoubleConsumePanics pins the pool misuse guard: a hub that Consumes
// one delivery twice would corrupt both the credit ledger and the free
// list, so the second release must panic at the offending call site.
func TestDoubleConsumePanics(t *testing.T) {
	k := sim.NewKernel()
	x := New(k, DefaultConfig())
	var delivered *noc.Message
	for c := 0; c < 64; c++ {
		x.SetDeliver(c, func(m *noc.Message) { delivered = m })
	}
	if !x.Send(msg(1, 3, 9, 64)) {
		t.Fatal("send refused")
	}
	k.Run()
	if delivered == nil {
		t.Fatal("message never delivered")
	}
	x.Consume(9, delivered)
	defer func() {
		if recover() == nil {
			t.Fatal("double Consume did not panic")
		}
	}()
	x.Consume(9, delivered)
}

// TestGeometryMatchesPhotonics checks the default crossbar against the
// paper's photonic geometry: the farthest writer pays the serpentine's
// worst-case propagation (8 clocks, Section 3.2), and a channel moves
// the 64 B per cycle its 256 wavelengths carry.
func TestGeometryMatchesPhotonics(t *testing.T) {
	g := photonic.DefaultGeometry()
	cfg := DefaultConfig()
	x := New(sim.NewKernel(), cfg)
	var worst sim.Time
	for src := 0; src < cfg.Clusters; src++ {
		for dst := 0; dst < cfg.Clusters; dst++ {
			if src != dst {
				worst = max(worst, x.propagation(src, dst))
			}
		}
	}
	if want := sim.Time(g.MaxPropagationClocks()); worst != want {
		t.Errorf("worst-case propagation = %d clocks, geometry says %d", worst, want)
	}
	if want := g.ChannelBytesPerCycle(); cfg.BytesPerCycle != want {
		t.Errorf("channel width = %d B/cycle, geometry says %d", cfg.BytesPerCycle, want)
	}
}
