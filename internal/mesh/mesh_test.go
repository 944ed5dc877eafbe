package mesh

import (
	"testing"
	"testing/quick"

	"corona/internal/noc"
	"corona/internal/sim"
)

type harness struct {
	k    *sim.Kernel
	m    *Mesh
	got  []*noc.Message
	when []sim.Time
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel()}
	h.m = New(h.k, cfg)
	for c := 0; c < h.m.Clusters(); c++ {
		c := c
		h.m.SetDeliver(c, func(msg *noc.Message) {
			h.got = append(h.got, msg)
			h.when = append(h.when, h.k.Now())
			h.m.Consume(c, msg)
		})
	}
	return h
}

func msg(id uint64, src, dst, size int, kind noc.Kind) *noc.Message {
	return &noc.Message{ID: id, Src: src, Dst: dst, Size: size, Kind: kind}
}

func TestBisectionBandwidth(t *testing.T) {
	if got := HMeshConfig().BisectionBytesPerSec(); got != 1.28e12 {
		t.Errorf("HMesh bisection = %v, want 1.28 TB/s", got)
	}
	if got := LMeshConfig().BisectionBytesPerSec(); got != 0.64e12 {
		t.Errorf("LMesh bisection = %v, want 0.64 TB/s", got)
	}
}

func TestDimensionOrderRouting(t *testing.T) {
	h := newHarness(t, HMeshConfig())
	// From (1,1)=9 to (3,2)=19: X first (E,E), then Y (S), then eject.
	path := h.m.route(9, 19, nil)
	want := []portRef{{9, dirEast}, {10, dirEast}, {11, dirSouth}, {19, dirEject}}
	if len(path) != len(want) {
		t.Fatalf("path len = %d, want %d", len(path), len(want))
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %+v, want %+v", i, path[i], want[i])
		}
	}
}

func TestRoutePropertyXY(t *testing.T) {
	// Property: a DOR path never turns from Y back to X, visits adjacent
	// routers, has Hops(src,dst)+1 entries, and ends with ejection at dst.
	h := newHarness(t, HMeshConfig())
	f := func(a, b uint8) bool {
		src, dst := int(a%64), int(b%64)
		if src == dst {
			return true
		}
		path := h.m.route(src, dst, nil)
		if len(path) != h.m.Hops(src, dst)+1 {
			return false
		}
		last := path[len(path)-1]
		if last.router != dst || last.d != dirEject {
			return false
		}
		seenY := false
		cur := src
		for _, p := range path[:len(path)-1] {
			if p.router != cur {
				return false
			}
			switch p.d {
			case dirEast:
				cur++
			case dirWest:
				cur--
			case dirSouth:
				cur += 8
				seenY = true
			case dirNorth:
				cur -= 8
				seenY = true
			default:
				return false
			}
			if seenY && (p.d == dirEast || p.d == dirWest) {
				return false
			}
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUncontendedLatency(t *testing.T) {
	// One hop: grant at 0, head at 5, tail at 5+s. 64 B on HMesh: s=4.
	h := newHarness(t, HMeshConfig())
	h.m.Send(msg(1, 0, 1, 64, noc.KindResponse))
	h.k.Run()
	if len(h.got) != 1 {
		t.Fatal("message not delivered")
	}
	// Path: link 0->1 (grant 0, head at 5), eject (grant 5, delivered 5+5+4).
	want := sim.Time(5 + 5 + 4)
	if h.when[0] != want {
		t.Errorf("1-hop 64 B latency = %d, want %d", h.when[0], want)
	}
}

func TestCornerToCornerLatency(t *testing.T) {
	// 14 hops corner to corner: per-hop 5 cycles dominates.
	h := newHarness(t, HMeshConfig())
	h.m.Send(msg(1, 0, 63, 16, noc.KindRequest))
	h.k.Run()
	// 14 link grants at 5-cycle strides + eject (5 + s=1).
	want := sim.Time(14*5 + 5 + 1)
	if h.when[0] != want {
		t.Errorf("corner-to-corner latency = %d, want %d", h.when[0], want)
	}
	if h.got[0].Hops != 14 {
		t.Errorf("hops = %d, want 14", h.got[0].Hops)
	}
}

func TestHopsMetric(t *testing.T) {
	h := newHarness(t, HMeshConfig())
	cases := []struct{ src, dst, want int }{
		{0, 1, 1}, {0, 63, 14}, {0, 7, 7}, {0, 56, 7}, {27, 27, 0}, {9, 19, 3},
	}
	for _, c := range cases {
		if got := h.m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestLMeshSlowerSerialization(t *testing.T) {
	hh := newHarness(t, HMeshConfig())
	hl := newHarness(t, LMeshConfig())
	hh.m.Send(msg(1, 0, 1, 64, noc.KindResponse))
	hl.m.Send(msg(1, 0, 1, 64, noc.KindResponse))
	hh.k.Run()
	hl.k.Run()
	if hl.when[0] <= hh.when[0] {
		t.Errorf("LMesh (%d) should be slower than HMesh (%d) for the same line",
			hl.when[0], hh.when[0])
	}
}

func TestInjectionBackPressure(t *testing.T) {
	cfg := HMeshConfig()
	cfg.InjectQueue = 2
	h := newHarness(t, cfg)
	ok := 0
	for i := 0; i < 10; i++ {
		if h.m.Send(msg(uint64(i), 0, 63, 64, noc.KindRequest)) {
			ok++
		}
	}
	if ok >= 10 {
		t.Fatal("injection queue never exerted back pressure")
	}
	h.k.Run()
	if len(h.got) != ok {
		t.Fatalf("delivered %d, want %d", len(h.got), ok)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two packets share the 0->1 link; their link grants must not overlap.
	h := newHarness(t, HMeshConfig())
	h.m.Send(msg(1, 0, 1, 64, noc.KindResponse)) // s=4
	h.m.Send(msg(2, 0, 1, 64, noc.KindResponse))
	h.k.Run()
	if len(h.when) != 2 {
		t.Fatal("not all delivered")
	}
	gap := h.when[1] - h.when[0]
	if gap < 4 {
		t.Errorf("deliveries %d apart, want >= 4 (serialization on shared link)", gap)
	}
}

func TestVirtualNetworksNoProtocolDeadlock(t *testing.T) {
	// A sink that only consumes responses must still receive responses even
	// while its request buffer is saturated: the two classes have separate
	// buffers and credits.
	cfg := HMeshConfig()
	cfg.RecvBuffer = 4   // 2 credits per class
	cfg.InjectQueue = 16 // accept all 10 sends per class up front
	k := sim.NewKernel()
	m := New(k, cfg)
	var reqs, rsps int
	for c := 0; c < 64; c++ {
		m.SetDeliver(c, func(msg *noc.Message) {
			if msg.Kind == noc.KindResponse {
				rsps++
				m.Consume(c, msg)
			} else {
				reqs++ // requests delivered but never consumed: buffer wedges
			}
		})
	}
	for i := 0; i < 10; i++ {
		m.Send(msg(uint64(i), 1, 0, 16, noc.KindRequest))
	}
	for i := 0; i < 10; i++ {
		m.Send(msg(uint64(100+i), 2, 0, 72, noc.KindResponse))
	}
	k.RunLimit(100000)
	if rsps != 10 {
		t.Fatalf("responses delivered = %d, want 10 despite wedged request class", rsps)
	}
}

func TestDeliveryCompletenessProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%80) + 1
		rng := sim.NewRand(seed)
		k := sim.NewKernel()
		cfg := HMeshConfig()
		cfg.InjectQueue = 200
		m := New(k, cfg)
		seen := make(map[uint64]int)
		for c := 0; c < 64; c++ {
			c := c
			m.SetDeliver(c, func(msg *noc.Message) {
				seen[msg.ID]++
				m.Consume(c, msg)
			})
		}
		for i := 0; i < n; i++ {
			src := rng.Intn(64)
			dst := rng.Intn(63)
			if dst >= src {
				dst++
			}
			kind := noc.KindRequest
			if rng.Intn(2) == 1 {
				kind = noc.KindResponse
			}
			if !m.Send(msg(uint64(i), src, dst, 16+rng.Intn(64), kind)) {
				return false
			}
		}
		if k.RunLimit(5_000_000) >= 5_000_000 {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pumper sends a 64-byte response from the cluster in the data word to a
// random other cluster every 2 cycles, whether or not the mesh accepts it.
type pumper struct {
	k   *sim.Kernel
	m   *Mesh
	rng *sim.Rand
	id  uint64
}

func (p *pumper) OnEvent(_ sim.Time, src uint64) {
	p.id++
	dst := p.rng.Intn(63)
	if dst >= int(src) {
		dst++
	}
	p.m.Send(msg(p.id, int(src), dst, 64, noc.KindResponse))
	p.k.ScheduleEvent(2, p, src)
}

func TestMeshVsXBarShapedBandwidth(t *testing.T) {
	// Saturate the bisection with uniform random traffic: HMesh should move
	// roughly twice the bytes LMesh does in the same horizon.
	run := func(cfg Config) uint64 {
		k := sim.NewKernel()
		m := New(k, cfg)
		var bytes uint64
		for c := 0; c < 64; c++ {
			c := c
			m.SetDeliver(c, func(msg *noc.Message) {
				bytes += uint64(msg.Size)
				m.Consume(c, msg)
			})
		}
		p := &pumper{k: k, m: m, rng: sim.NewRand(17)}
		for c := 0; c < 64; c++ {
			p.OnEvent(0, uint64(c))
		}
		k.RunUntil(4000)
		k.Stop()
		return bytes
	}
	hb := run(HMeshConfig())
	lb := run(LMeshConfig())
	ratio := float64(hb) / float64(lb)
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("HMesh/LMesh saturated throughput ratio = %.2f, want ~2", ratio)
	}
}

func TestLocalTrafficPanics(t *testing.T) {
	h := newHarness(t, HMeshConfig())
	defer func() {
		if recover() == nil {
			t.Error("src==dst Send did not panic")
		}
	}()
	h.m.Send(msg(1, 5, 5, 64, noc.KindRequest))
}

func TestUtilization(t *testing.T) {
	h := newHarness(t, HMeshConfig())
	h.m.Send(msg(1, 0, 7, 64, noc.KindResponse))
	h.k.Run()
	if u := h.m.Utilization(h.k.Now()); u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want in (0,1]", u)
	}
	if h.m.Utilization(0) != 0 {
		t.Error("zero-elapsed utilization should be 0")
	}
}

// TestDoubleConsumePanics pins the pool misuse guard on the mesh: the
// second release of one delivered message must panic (see the xbar twin).
func TestDoubleConsumePanics(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, HMeshConfig())
	var delivered *noc.Message
	for c := 0; c < 64; c++ {
		m.SetDeliver(c, func(msg *noc.Message) { delivered = msg })
	}
	if !m.Send(msg(1, 0, 63, 64, noc.KindRequest)) {
		t.Fatal("send refused")
	}
	k.Run()
	if delivered == nil {
		t.Fatal("message never delivered")
	}
	m.Consume(63, delivered)
	defer func() {
		if recover() == nil {
			t.Fatal("double Consume did not panic")
		}
	}()
	m.Consume(63, delivered)
}
