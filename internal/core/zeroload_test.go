package core

import (
	"context"
	"testing"

	"corona/internal/config"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/trace"
)

// The parameters the zero-load closed form is built from, each with its
// source. They are restated here rather than read from the model's
// configs, so a model that drifts from them fails the test.
const (
	zlClusters = 64 // Table 1: 64 clusters, an 8x8 mesh of routers
	zlMeshSide = 8

	// zlHubCycles is the hub's routing latency, paid twice (request in,
	// response out) by a cluster-local transaction "in lieu of the
	// network" and never by a remote one. A named assumption
	// (config.System.HubLatency, config.Custom's 4 cycles), not a paper
	// figure.
	zlHubCycles = 4

	// Memory (Table 4): 20 ns access at 5 GHz; an OCM fiber pair moves
	// 32 B/cycle (160 GB/s) on one half-duplex link with one module on the
	// chain (no chain hop); an ECM channel moves 15 GB/s in total, which
	// memory.ECMConfig splits into 1.5 B/cycle per direction.
	zlAccessCycles = 20 * sim.CyclesPerNs

	// Crossbar (Section 3.2): a channel moves 64 B (one line) per cycle,
	// and light and token both cover the 64-cluster serpentine in 8
	// cycles, i.e. 8 cluster positions per cycle.
	zlChannelBytes = 64
	zlRingSpeed    = 8

	// Meshes (Section 4): 5 cycles per hop; HMesh links move 16 B/cycle
	// (1.28 TB/s bisection), LMesh links 8 B/cycle (0.64 TB/s).
	zlHopCycles = 5
)

// zlRate is a link rate in bytes per cycle, as the fraction num/den.
type zlRate struct{ num, den int }

// cycles is the serialization time of n bytes, rounded up to whole cycles.
func (r zlRate) cycles(n int) sim.Time { return sim.Time((n*r.den + r.num - 1) / r.num) }

func zlCeil(a, b int) sim.Time { return sim.Time((a + b - 1) / b) }

// zlRing returns the positions from a to b in cyclically increasing
// cluster order (the serpentine's direction), in 1..zlClusters.
func zlRing(a, b int) int {
	d := ((b-a)%zlClusters + zlClusters) % zlClusters
	if d == 0 {
		d = zlClusters
	}
	return d
}

// zlMemory is an idle controller's read: the 16 B command crosses the
// link toward memory, the DRAM access takes 20 ns, and the 72 B response
// crosses back.
func zlMemory(mem config.MemoryKind) sim.Time {
	rate := zlRate{32, 1} // OCM
	if mem == config.ECM {
		rate = zlRate{3, 2}
	}
	return rate.cycles(noc.RequestBytes) + zlAccessCycles + rate.cycles(noc.ResponseBytes)
}

// zlTransit is one message's idle-network transit from src to dst when it
// is sent at cycle at.
func zlTransit(fabric string, src, dst, bytes int, at sim.Time) sim.Time {
	switch fabric {
	case "xbar":
		// Channel dst's token starts idle at its home, dst, at cycle 0 and
		// circulates; the writer waits for it to arrive (whole cycles,
		// floored), then serializes and propagates to the home's detectors.
		pos := (dst + int(at)*zlRingSpeed) % zlClusters
		wait := sim.Time(zlRing(pos, src) % zlClusters / zlRingSpeed) // 0 at src
		return wait + zlCeil(bytes, zlChannelBytes) + zlCeil(zlRing(src, dst), zlRingSpeed)
	case "swmr":
		// The writer owns its channel: no token, serialization plus
		// propagation from src's modulators to dst.
		return zlCeil(bytes, zlChannelBytes) + zlCeil(zlRing(src, dst), zlRingSpeed)
	case "hmesh", "lmesh":
		// Cut-through: the head advances one hop per 5 cycles, then one
		// more 5-cycle stage and the serialization into the hub.
		width := 16
		if fabric == "lmesh" {
			width = 8
		}
		hops := zlAbs(src%zlMeshSide-dst%zlMeshSide) + zlAbs(src/zlMeshSide-dst/zlMeshSide)
		return sim.Time(hops+1)*zlHopCycles + zlCeil(bytes, width)
	}
	panic("zero-load: no closed form for fabric " + fabric)
}

func zlAbs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// zlLatency is the closed-form latency, in cycles, of one read issued at
// cycle issue by src for a line homed at home, on an idle machine. A
// remote request enters the network as it issues and is submitted to the
// home controller as it arrives; the response retires on arrival.
func zlLatency(cfg config.System, src, home int, issue sim.Time) sim.Time {
	memory := zlMemory(cfg.Mem)
	if src == home {
		return zlHubCycles + memory + zlHubCycles
	}
	request := zlTransit(cfg.Fabric, src, home, noc.RequestBytes, issue)
	response := zlTransit(cfg.Fabric, home, src, noc.ResponseBytes, issue+request+memory)
	return request + memory + response
}

// TestZeroLoadLatency checks the model against the parameters it claims
// to implement rather than against its own earlier output: on an idle
// machine, every (source, home) pair's single read must take exactly the
// closed form's cycles. Only the crossbar's token makes the latency depend
// on the issue cycle, so the crossbar is checked at each phase of the
// 8-cycle token revolution and the other fabrics at cycle 0 alone, which
// keeps the test quick under the race detector. want is the summary of
// the reads issued at cycle 0: the local latency and the range of remote
// latencies, in cycles (ns = cycles / 5). The crossbar's remote range is
// 122-130 cycles at cycle 0 and 118-126 (23.6-25.2 ns) at cycle 4.
func TestZeroLoadLatency(t *testing.T) {
	type summary struct{ local, remoteMin, remoteMax sim.Time }
	want := map[string]summary{
		"XBar/OCM":  {112, 122, 130}, // 22.4 ns; 24.4-26.0 ns
		"SWMR/OCM":  {112, 115, 116}, // 22.4 ns; 23.0-23.2 ns
		"HMesh/OCM": {112, 130, 260}, // 22.4 ns; 26.0-52.0 ns
		"LMesh/OCM": {112, 135, 265}, // 22.4 ns; 27.0-53.0 ns
		"HMesh/ECM": {167, 185, 315}, // 33.4 ns; 37.0-63.0 ns
		"LMesh/ECM": {167, 190, 320}, // 33.4 ns; 38.0-64.0 ns
	}
	swmr, err := config.ParseName("SWMR/OCM")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range append(config.Combos(), swmr) {
		t.Run(cfg.Name(), func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			phases := sim.Time(1)
			if cfg.Fabric == "xbar" {
				phases = zlRingSpeed
			}
			buckets := make([][]trace.Record, zlClusters)
			var got summary
			for issue := range phases {
				for src := range zlClusters {
					for home := range zlClusters {
						if err := sys.Reset(); err != nil {
							t.Fatal(err)
						}
						buckets[src] = []trace.Record{{Time: issue, Addr: uint64(home) * noc.LineBytes}}
						r, err := ReplayRunner(sys, "zero-load", buckets)
						if err != nil {
							t.Fatal(err)
						}
						res, err := r.Run(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						lat := zlLatency(cfg, src, home, issue)
						if res.Cycles != issue+lat || res.MeanLatencyNs != lat.Ns() {
							t.Fatalf("%d -> %d at cycle %d: done at %d (%v ns), closed form %d cycles",
								src, home, issue, res.Cycles, res.MeanLatencyNs, lat)
						}
						switch {
						case issue > 0:
						case src == home:
							got.local = lat
						case got.remoteMin == 0:
							got.remoteMin, got.remoteMax = lat, lat
						default:
							got.remoteMin, got.remoteMax = min(got.remoteMin, lat), max(got.remoteMax, lat)
						}
					}
					buckets[src] = nil
				}
			}
			if got != want[cfg.Name()] {
				t.Errorf("zero-load summary %+v, want %+v", got, want[cfg.Name()])
			}
		})
	}
}
