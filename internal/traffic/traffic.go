// Package traffic generates the synthetic workloads of Table 3 — Uniform,
// Hot Spot, Tornado, and Transpose — and provides the parameterised stochastic
// workload model (Spec) that the SPLASH-2 application models in package
// splash instantiate.
//
// A Spec describes offered load (aggregate bandwidth demand), destination
// distribution (pattern kind, locality, hot-spotting), write fraction, and
// optional barrier-driven burstiness. A Generator turns a Spec into
// per-cluster annotated L2-miss streams (trace.Record) that the network
// simulator replays, exactly as the paper replays COTSon traces.
package traffic

import (
	"fmt"

	"corona/internal/sim"
	"corona/internal/trace"
)

// PatternKind selects the destination distribution.
type PatternKind uint8

// Destination patterns (Table 3). Grid patterns interpret clusters as a
// radix-8 2D grid, matching the paper's definitions.
const (
	// Uniform sends to uniformly random clusters.
	Uniform PatternKind = iota
	// HotSpot sends everything to one cluster.
	HotSpot
	// Tornado sends cluster (i,j) to ((i+k/2-1)%k, (j+k/2-1)%k), k = radix.
	Tornado
	// Transpose sends cluster (i,j) to (j,i).
	Transpose
)

// String names the pattern.
func (p PatternKind) String() string {
	switch p {
	case Uniform:
		return "Uniform"
	case HotSpot:
		return "Hot Spot"
	case Tornado:
		return "Tornado"
	case Transpose:
		return "Transpose"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// BurstSpec models barrier-driven bursty traffic (the paper's analysis of LU:
// "many threads attempt to access the same remotely stored matrix block at
// the same time, following a barrier").
type BurstSpec struct {
	// PeriodCycles is the barrier-to-barrier phase length.
	PeriodCycles uint64
	// WindowFrac is the fraction of each phase, at its start, during which
	// traffic bursts.
	WindowFrac float64
	// Boost multiplies the issue rate inside the burst window.
	Boost float64
	// Concentration is the probability that a burst-window request targets
	// the phase's hot block home (which rotates every phase).
	Concentration float64
}

// Spec is a complete workload description.
type Spec struct {
	Name string
	Kind PatternKind
	// DemandTBs is the offered aggregate memory demand in TB/s (counting
	// request + response wire bytes). Zero or negative means saturating:
	// issue as fast as back pressure allows.
	DemandTBs float64
	// LocalFrac is the fraction of misses homed at the issuing cluster's own
	// memory controller.
	LocalFrac float64
	// WriteFrac is the store/writeback fraction.
	WriteFrac float64
	// HotTarget is the HotSpot destination cluster.
	HotTarget int
	// Burst, when non-nil, adds barrier-phase burstiness.
	Burst *BurstSpec
	// DefaultRequests is the paper's Table 3 network request count for this
	// workload; harnesses scale it down for quick runs.
	DefaultRequests int
}

// WireBytesPerRequest is the accounting size of one L2-miss transaction on
// the wire (16 B request + 72 B response), used to convert between demand
// bandwidth and request rate.
const WireBytesPerRequest = 88

// Synthetic returns the four Table 3 synthetic workloads. Demand is set at
// 5 TB/s — comfortably above every mesh's capacity and near the crossbar's
// observed ceiling — so the synthetics exercise interconnect limits, while
// Hot Spot is intrinsically clamped by its single memory controller.
func Synthetic() []Spec {
	return []Spec{
		{Name: "Uniform", Kind: Uniform, DemandTBs: 5, WriteFrac: 0.3, DefaultRequests: 1_000_000},
		{Name: "Hot Spot", Kind: HotSpot, DemandTBs: 5, WriteFrac: 0.3, HotTarget: 0, DefaultRequests: 1_000_000},
		{Name: "Tornado", Kind: Tornado, DemandTBs: 5, WriteFrac: 0.3, DefaultRequests: 1_000_000},
		{Name: "Transpose", Kind: Transpose, DemandTBs: 5, WriteFrac: 0.3, DefaultRequests: 1_000_000},
	}
}

// Generator produces per-cluster miss streams for a Spec.
type Generator struct {
	spec     Spec
	clusters int
	radix    int
	rngs     []*sim.Rand
	next     []sim.Time
	thread   []int
	meanGap  float64 // mean per-cluster inter-arrival in cycles
}

// NewGenerator builds a generator over `clusters` endpoints (must be a
// perfect square for the grid patterns; Corona's 64 is).
func NewGenerator(spec Spec, clusters int, seed uint64) *Generator {
	radix := intSqrt(clusters)
	if radix*radix != clusters {
		panic(fmt.Sprintf("traffic: clusters %d is not a perfect square", clusters))
	}
	g := &Generator{
		spec:     spec,
		clusters: clusters,
		radix:    radix,
		rngs:     make([]*sim.Rand, clusters),
		next:     make([]sim.Time, clusters),
		thread:   make([]int, clusters),
	}
	for i := range g.rngs {
		g.rngs[i] = sim.NewRand(seed*1_000_003 + uint64(i)*7919 + 1)
	}
	if spec.DemandTBs > 0 {
		// Aggregate requests/cycle = demand / (wire bytes * 5 GHz);
		// per cluster divide by cluster count.
		reqPerCycle := spec.DemandTBs * 1e12 / (WireBytesPerRequest * 5e9)
		g.meanGap = float64(clusters) / reqPerCycle
	}
	return g
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Clusters returns the endpoint count.
func (g *Generator) Clusters() int { return g.clusters }

// inBurstWindow reports whether t falls inside the burst window of its phase
// and returns the phase index.
func (g *Generator) inBurstWindow(t sim.Time) (bool, uint64) {
	b := g.spec.Burst
	if b == nil || b.PeriodCycles == 0 {
		return false, 0
	}
	phase := uint64(t) / b.PeriodCycles
	offset := uint64(t) % b.PeriodCycles
	return float64(offset) < b.WindowFrac*float64(b.PeriodCycles), phase
}

// Next produces cluster's next miss record. Streams are per-cluster
// monotonic in time.
func (g *Generator) Next(cluster int) trace.Record {
	rng := g.rngs[cluster]
	t := g.next[cluster]

	burst, phase := g.inBurstWindow(t)
	gap := g.meanGap
	if burst && g.spec.Burst.Boost > 0 {
		gap /= g.spec.Burst.Boost
	}
	if gap > 0 {
		// Geometric inter-arrival with the configured mean.
		p := 1.0 / (gap + 1.0)
		g.next[cluster] = t + sim.Time(rng.Geometric(p)) + 1
	}
	// Saturating specs leave next[cluster] at t: issue limited purely by
	// back pressure.

	dst := g.dest(cluster, rng, burst, phase)
	addr := g.addrHomedAt(dst, rng)

	thr := uint16(cluster*16 + g.thread[cluster])
	g.thread[cluster] = (g.thread[cluster] + 1) % 16

	return trace.Record{
		Time:   t,
		Thread: thr,
		Addr:   addr,
		Write:  rng.Float64() < g.spec.WriteFrac,
	}
}

// dest draws the destination (home) cluster for one request from cluster.
func (g *Generator) dest(cluster int, rng *sim.Rand, burst bool, phase uint64) int {
	if burst && rng.Float64() < g.spec.Burst.Concentration {
		// The phase's hot block home, rotating each phase so no single MC
		// stays hot across the run.
		return int((phase * 17) % uint64(g.clusters))
	}
	if g.spec.LocalFrac > 0 && rng.Float64() < g.spec.LocalFrac {
		return cluster
	}
	k := g.radix
	x, y := cluster%k, cluster/k
	switch g.spec.Kind {
	case HotSpot:
		return g.spec.HotTarget
	case Tornado:
		shift := k/2 - 1
		return ((y+shift)%k)*k + (x+shift)%k
	case Transpose:
		return x*k + y
	default: // Uniform
		return rng.Intn(g.clusters)
	}
}

// addrHomedAt builds a line-aligned address whose home controller is dst,
// under line-interleaved home mapping: home = (addr/64) % clusters.
func (g *Generator) addrHomedAt(dst int, rng *sim.Rand) uint64 {
	page := rng.Uint64() % (1 << 40)
	return (page*uint64(g.clusters) + uint64(dst)) * 64
}

// HomeOf returns the home controller for addr under the generator's
// interleaving (the inverse of addrHomedAt).
func HomeOf(addr uint64, clusters int) int {
	return int((addr / 64) % uint64(clusters))
}
