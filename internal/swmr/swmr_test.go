package swmr

import (
	"testing"
	"testing/quick"

	"corona/internal/noc"
	"corona/internal/photonic"
	"corona/internal/sim"
)

// harness wires an SWMR crossbar with auto-consuming sinks.
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

func TestNoArbitrationLatency(t *testing.T) {
	// The organization's headline property: an uncontended send starts
	// immediately — serialization plus propagation only, no token wait.
	h := newHarness(t, DefaultConfig())
	if !h.x.Send(msg(1, 1, 2, 64)) {
		t.Fatal("Send refused on empty queue")
	}
	h.k.Run()
	if len(h.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(h.got))
	}
	// src=1 -> dst=2: tx 1 cycle + propagation ceil(1/8) = 1 cycle. The MWSR
	// crossbar pays up to a full token revolution extra here.
	if want := sim.Time(1 + 1); h.when[0] != want {
		t.Errorf("delivery at %d, want %d (tx 1 + prop 1, zero arbitration)", h.when[0], want)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// A head message stalled on a full destination blocks a second message
	// to a completely idle destination — SWMR's structural cost. The same
	// pair of sends on the MWSR crossbar would proceed independently.
	cfg := DefaultConfig()
	cfg.RecvBuffer = 1
	k := sim.NewKernel()
	x := New(k, cfg)
	var toIdle []sim.Time
	for c := 0; c < cfg.Clusters; c++ {
		c := c
		x.SetDeliver(c, func(m *noc.Message) {
			if c == 2 {
				toIdle = append(toIdle, k.Now())
				x.Consume(c, m)
			}
			// Cluster 1's sink never consumes: its single credit stays held.
		})
	}
	// Exhaust dst 1's credit from another source, then queue src 0's pair.
	if !x.Send(msg(1, 3, 1, 64)) {
		t.Fatal("credit-exhausting send refused")
	}
	k.Run()
	if !x.Send(msg(2, 0, 1, 64)) || !x.Send(msg(3, 0, 2, 64)) {
		t.Fatal("sends refused below queue capacity")
	}
	k.Run()
	if len(toIdle) != 0 {
		t.Fatalf("message to idle dst 2 delivered despite blocked head (HOL violated)")
	}
	// Releasing dst 1's buffer unblocks the whole source FIFO.
	x.Consume(1, msg(99, 3, 1, 64))
	k.Run()
	if len(toIdle) != 1 {
		t.Fatalf("idle-destination message not delivered after head unblocked")
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
	if !h.x.Send(msg(1, 0, 1, 64)) || !h.x.Send(msg(2, 0, 2, 64)) {
		t.Fatal("queue refused before capacity")
	}
	if h.x.Send(msg(3, 0, 3, 64)) {
		t.Fatal("queue accepted beyond capacity")
	}
	h.k.Run()
	if len(h.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(h.got))
	}
	if !h.x.Send(msg(4, 0, 1, 64)) {
		t.Fatal("queue still refusing after drain")
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
	x.Consume(0, msg(100, 1, 0, 64))
	k.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d after one Consume, want 5", delivered)
	}
}

func TestFanInParallelWithFullReceivers(t *testing.T) {
	// With per-channel receivers, fan-in is bounded by credits and source
	// channels, not a shared receiver: 16 writers with 16 credits all land
	// within one serialization + worst-case propagation window.
	cfg := DefaultConfig()
	h := newHarness(t, cfg)
	for s := 1; s <= 16; s++ {
		if !h.x.Send(msg(uint64(s), s, 0, 64)) {
			t.Fatalf("send from %d refused", s)
		}
	}
	h.k.Run()
	if len(h.got) != 16 {
		t.Fatalf("delivered %d, want 16", len(h.got))
	}
	if h.k.Now() > 9 {
		t.Errorf("16-way fan-in took %d cycles, want <= 9 (tx 1 + prop <= 8)", h.k.Now())
	}
}

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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndUtilization(t *testing.T) {
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

func TestRegisteredFabric(t *testing.T) {
	f, ok := noc.Lookup("swmr")
	if !ok {
		t.Fatal("swmr fabric not registered")
	}
	if f.Display != "SWMR" || f.PowerW == nil {
		t.Fatalf("incomplete descriptor: %+v", f)
	}
	n, err := f.Build(sim.NewKernel(), noc.FabricParams{Clusters: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n.Clusters() != 64 || n.Name() != "swmr" {
		t.Fatalf("built network wrong: %s/%d", n.Name(), n.Clusters())
	}
	if f.BisectionTBs != 20.48 {
		t.Errorf("bisection = %v TB/s, want 20.48", f.BisectionTBs)
	}
}

// TestGeometryMatchesPhotonics checks the default crossbar against the
// paper's photonic geometry: the farthest reader pays the serpentine's
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
