package mesh

import (
	"slices"
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
	if got := HMeshConfig().BisectionTBs(); got != 1.28 {
		t.Errorf("HMesh bisection = %v TB/s, want 1.28", got)
	}
	if got := LMeshConfig().BisectionTBs(); got != 0.64 {
		t.Errorf("LMesh bisection = %v TB/s, want 0.64", got)
	}
}

// route is the dimension-order (X then Y) path each packet used to carry:
// one output port per hop plus the final ejection port. It stays here as
// the reference toward is checked against.
func route(cfg Config, src, dst int) []portRef {
	w := cfg.Width
	x, y := src%w, src/w
	dx, dy := dst%w, dst/w
	var path []portRef
	for x != dx {
		if x < dx {
			path = append(path, portRef{y*w + x, dirEast})
			x++
		} else {
			path = append(path, portRef{y*w + x, dirWest})
			x--
		}
	}
	for y != dy {
		if y < dy {
			path = append(path, portRef{y*w + x, dirSouth})
			y++
		} else {
			path = append(path, portRef{y*w + x, dirNorth})
			y--
		}
	}
	return append(path, portRef{dst, dirEject})
}

// walk follows toward from src to dst the way hop moves a packet, giving
// up after more steps than any dimension-order path can take.
func walk(m *Mesh, src, dst int) []portRef {
	var path []portRef
	for r := src; len(path) <= m.cfg.Width+m.cfg.Height; {
		d := m.toward(r, dst)
		path = append(path, portRef{r, d})
		if d == dirEject {
			break
		}
		r += m.step[d]
	}
	return path
}

// TestTowardMatchesRoute walks toward for every (src, dst) pair, the
// local one included, on the 8x8 preset and on a 4x16 mesh, and requires
// the port sequence the stored route gave.
func TestTowardMatchesRoute(t *testing.T) {
	tall := HMeshConfig()
	tall.Width, tall.Height = 4, 16
	for _, cfg := range []Config{HMeshConfig(), tall} {
		m := New(sim.NewKernel(), cfg)
		for src := 0; src < m.Clusters(); src++ {
			for dst := 0; dst < m.Clusters(); dst++ {
				got, want := walk(m, src, dst), route(cfg, src, dst)
				if !slices.Equal(got, want) {
					t.Fatalf("%dx%d %d->%d: toward walks %v, route gives %v",
						cfg.Width, cfg.Height, src, dst, got, want)
				}
			}
		}
	}
}

func TestDimensionOrderRouting(t *testing.T) {
	h := newHarness(t, HMeshConfig())
	// From (1,1)=9 to (3,2)=19: X first (E,E), then Y (S), then eject.
	path := walk(h.m, 9, 19)
	want := []portRef{{9, dirEast}, {10, dirEast}, {11, dirSouth}, {19, dirEject}}
	if !slices.Equal(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestRoutePropertyXY(t *testing.T) {
	// Property: a DOR walk never turns from Y back to X, visits adjacent
	// routers, has Hops(src,dst)+1 entries, and ends with ejection at dst.
	h := newHarness(t, HMeshConfig())
	f := func(a, b uint8) bool {
		src, dst := int(a%64), int(b%64)
		if src == dst {
			return true
		}
		path := walk(h.m, src, dst)
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

// TestSendEjectAllocatesNothing requires a warmed mesh to carry a burst of
// pooled messages from Send to Consume without allocating: packets live by
// value in the arena and their routes are computed hop by hop. The burst
// mixes 16-byte requests with 80-byte writebacks, whose serialization
// equals HopLatency on HMesh, so both the hop event and the hop folded
// into the tail event run.
func TestSendEjectAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, HMeshConfig())
	for c := 0; c < m.Clusters(); c++ {
		m.SetDeliver(c, func(msg *noc.Message) { m.Consume(c, msg) })
	}
	burst := func() {
		for src := 0; src < m.Clusters(); src++ {
			msg := m.Acquire()
			msg.Src, msg.Dst = src, (src*7+5)%m.Clusters()
			if msg.Dst == src {
				msg.Dst = (src + 1) % m.Clusters()
			}
			msg.Kind, msg.Size = noc.KindRequest, noc.RequestBytes
			if src%2 == 1 {
				msg.Kind, msg.Size = noc.KindWriteback, noc.WritebackBytes
			}
			if !m.Send(msg) {
				t.Fatalf("send from %d refused", src)
			}
		}
		k.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Errorf("warmed Send→eject burst allocates %.1f times, want 0", allocs)
	}
	if n := m.pkts.Len(); n != 0 {
		t.Errorf("%d packets left in the arena after the bursts drained", n)
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

// pinSender injects message i of its table at the cycle it was scheduled
// for, retrying every cycle while the mesh refuses it.
type pinSender struct {
	k    *sim.Kernel
	m    *Mesh
	msgs []*noc.Message
}

func (s *pinSender) OnEvent(_ sim.Time, i uint64) {
	if !s.m.Send(s.msgs[i]) {
		s.k.ScheduleEvent(1, s, i)
	}
}

// TestPipelinePinned replays a fixed, contended pattern on HMesh and LMesh
// and requires every message's delivery cycle and the kernel's Executed
// count recorded before grant's credit, hop and wake events were fused into
// one tail event. Thirty-two sources send 256 requests, responses and
// writebacks (16, 40, 72 and 80 bytes) to one hot destination in 4 cycles,
// which reaches every tail shape: stage-0 injection plus wake, credit plus
// hop plus wake (s == HopLatency: 72 and 80 bytes on HMesh, 40 on LMesh),
// and grants whose wake a pending one covers. The ejection backlog also
// makes the order of the folded parts visible: running the wake before the
// hop changes delivery cycles on both meshes.
func TestPipelinePinned(t *testing.T) {
	cases := []struct {
		cfg      Config
		executed uint64
		at       []sim.Time
	}{
		{HMeshConfig(), 4096, []sim.Time{
			702, 76, 31, 90, 595, 283, 382, 695, 244, 11, 35, 358, 766, 206, 129, 347,
			236, 113, 192, 757, 571, 46, 21, 188, 724, 565, 304, 543, 98, 41, 143, 548,
			713, 224, 139, 155, 392, 323, 560, 703, 287, 16, 71, 406, 767, 279, 164, 369,
			252, 353, 471, 624, 589, 138, 51, 383, 530, 668, 416, 575, 117, 40, 241, 564,
			718, 199, 108, 179, 436, 579, 696, 524, 309, 34, 203, 607, 606, 519, 260, 417,
			293, 134, 535, 636, 633, 83, 26, 397, 578, 717, 403, 422, 151, 116, 407, 716,
			494, 333, 146, 193, 611, 428, 708, 552, 387, 47, 82, 629, 632, 601, 231, 270,
			341, 282, 678, 761, 402, 103, 50, 413, 726, 452, 557, 462, 159, 135, 230, 733,
			538, 433, 185, 128, 657, 484, 746, 715, 292, 61, 142, 662, 773, 364, 377, 278,
			359, 437, 318, 772, 432, 221, 77, 220, 744, 574, 619, 615, 122, 169, 286, 745,
			725, 328, 265, 154, 672, 637, 594, 723, 312, 87, 225, 412, 779, 466, 467, 463,
			298, 503, 506, 774, 663, 184, 95, 274, 755, 728, 442, 647, 158, 275, 459, 584,
			738, 372, 313, 215, 458, 684, 618, 727, 423, 56, 257, 470, 780, 661, 346, 481,
			336, 561, 690, 652, 677, 214, 123, 453, 600, 754, 514, 669, 189, 174, 511, 614,
			739, 525, 198, 249, 498, 714, 756, 570, 447, 86, 299, 670, 642, 689, 386, 495,
			429, 352, 701, 660, 679, 271, 66, 489, 610, 760, 671, 476, 211, 202, 549, 747,
		}},
		{LMeshConfig(), 4096, []sim.Time{
			1282, 114, 50, 199, 1089, 414, 674, 1270, 437, 12, 61, 652, 1412, 353, 153, 632,
			430, 146, 288, 1398, 1034, 77, 31, 346, 1340, 941, 405, 982, 184, 79, 330, 1010,
			1314, 489, 249, 297, 748, 713, 946, 1294, 536, 21, 194, 696, 1424, 654, 273, 684,
			504, 665, 587, 1148, 1060, 236, 105, 691, 972, 1228, 689, 1078, 201, 88, 499, 1065,
			1322, 304, 162, 319, 784, 1111, 1067, 991, 562, 66, 366, 1125, 1109, 908, 567, 750,
			547, 364, 1001, 1174, 1150, 116, 59, 739, 1032, 1320, 698, 795, 264, 151, 779, 1324,
			883, 514, 302, 355, 1139, 456, 1292, 1025, 724, 68, 40, 1169, 1137, 1118, 396, 475,
			625, 552, 1214, 1400, 759, 220, 103, 797, 1368, 806, 1020, 853, 290, 238, 210, 1352,
			953, 786, 341, 229, 1203, 846, 1336, 1318, 545, 98, 254, 1216, 1428, 615, 606, 519,
			643, 841, 722, 1422, 839, 421, 127, 394, 1380, 1050, 1132, 1100, 247, 283, 534, 1370,
			1338, 641, 466, 295, 1232, 1246, 1087, 1334, 585, 164, 432, 770, 1438, 777, 848, 834,
			578, 927, 932, 1426, 1212, 339, 179, 482, 1386, 1364, 825, 1184, 309, 477, 855, 1098,
			1362, 703, 580, 407, 864, 1280, 1130, 1342, 772, 125, 529, 832, 1440, 1210, 663, 874,
			630, 1027, 1260, 1193, 1242, 419, 231, 827, 1076, 1396, 939, 1218, 348, 328, 963, 1123,
			1366, 948, 375, 447, 898, 1316, 1382, 1043, 816, 169, 569, 1244, 1159, 1258, 729, 934,
			761, 596, 1304, 1208, 1248, 484, 136, 893, 1116, 1402, 1230, 917, 385, 412, 1045, 1384,
		}},
	}
	for _, c := range cases {
		t.Run(c.cfg.Name, func(t *testing.T) {
			k := sim.NewKernel()
			m := New(k, c.cfg)
			at := make([]sim.Time, len(c.at))
			for cl := 0; cl < m.Clusters(); cl++ {
				m.SetDeliver(cl, func(msg *noc.Message) {
					at[msg.ID] = k.Now()
					m.Consume(cl, msg)
				})
			}
			s := &pinSender{k: k, m: m}
			for i := range c.at {
				kind, size := noc.KindRequest, noc.RequestBytes
				switch i % 5 {
				case 1:
					kind, size = noc.KindResponse, noc.ResponseBytes
				case 2:
					kind, size = noc.KindWriteback, noc.WritebackBytes
				case 3:
					kind, size = noc.KindResponse, 40
				}
				s.msgs = append(s.msgs, msg(uint64(i), i*5%32*2, 27, size, kind))
				k.AtEvent(sim.Time(i/64), s, uint64(i))
			}
			k.Run()
			for i, want := range c.at {
				if at[i] != want {
					t.Errorf("message %d delivered at cycle %d, want %d", i, at[i], want)
				}
			}
			if got := k.Executed(); got != c.executed {
				t.Errorf("Executed() = %d, want %d", got, c.executed)
			}
		})
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

// stopEvent ends a saturation run: scheduled at horizon+1 before any traffic
// lands there, it lets every event through the horizon run, then stops.
type stopEvent struct{ k *sim.Kernel }

func (s stopEvent) OnEvent(sim.Time, uint64) { s.k.Stop() }

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
		k.AtEvent(4001, stopEvent{k}, 0)
		k.Run()
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
