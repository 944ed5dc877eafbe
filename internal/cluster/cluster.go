// Package cluster models the intra-cluster hierarchy of Figure 2(b) and
// Table 1: four dual-issue, in-order, four-way multithreaded cores with
// private L1 instruction and data caches, sharing a unified L2.
//
// Its main role in the reproduction is as the substitute for the paper's
// COTSon full-system trace generation: a Cluster executes per-thread
// synthetic reference streams against the real L1/L2 cache models, and the
// resulting stream of L2 misses — annotated with thread and time — is
// exactly the trace the network simulator replays (Section 4's two-part
// infrastructure). It also carries the per-cluster area/power bookkeeping
// the paper derives from Penryn/Silverthorne scaling.
package cluster

import (
	"fmt"

	"corona/internal/cache"
	"corona/internal/sim"
	"corona/internal/trace"
)

// Table 1 structural constants.
const (
	CoresPerCluster   = 4
	ThreadsPerCore    = 4
	ThreadsPerCluster = CoresPerCluster * ThreadsPerCore
	SIMDWidth         = 4 // 64 b floating point SIMD lanes
	FrequencyGHz      = 5
)

// FlopsPerCycle returns a core's peak FLOPs per cycle: SIMD width x 2
// (fused multiply-add counts two operations).
func FlopsPerCycle() int { return SIMDWidth * 2 }

// PeakSystemTeraflops returns the 256-core chip's peak: the paper's
// 10 teraflops.
func PeakSystemTeraflops(clusters int) float64 {
	return float64(clusters*CoresPerCluster*FlopsPerCycle()) * FrequencyGHz * 1e9 / 1e12
}

// Core is one in-order multithreaded core with private L1s.
type Core struct {
	ID  int
	L1I *cache.Cache
	L1D *cache.Cache
}

// Cluster is four cores plus the shared L2.
type Cluster struct {
	ID    int
	Cores [CoresPerCluster]*Core
	L2    *cache.Cache
}

// New builds a cluster with Table 1 cache geometry; sim-scale L2 (256 KB,
// Section 4) is selected by simL2.
func New(id int, simL2 bool) *Cluster {
	c := &Cluster{ID: id}
	l2cfg := cache.L2Config()
	if simL2 {
		l2cfg = cache.L2SimConfig()
	}
	c.L2 = cache.New(l2cfg)
	for i := range c.Cores {
		c.Cores[i] = &Core{
			ID:  id*CoresPerCluster + i,
			L1I: cache.New(cache.L1IConfig()),
			L1D: cache.New(cache.L1DConfig()),
		}
	}
	return c
}

// Access runs one data reference from a hardware thread through the L1D and
// (on miss) the shared L2. It returns whether the reference missed all the
// way to memory — i.e. whether it becomes a network request — and any dirty
// L2 victim that must be written back.
func (c *Cluster) Access(thread int, addr uint64, write bool) (l2Miss bool, writeback bool, victim uint64) {
	if thread < 0 || thread >= ThreadsPerCluster {
		panic(fmt.Sprintf("cluster: thread %d out of range", thread))
	}
	core := c.Cores[thread/ThreadsPerCore]
	if r := core.L1D.Access(addr, write); r.Hit {
		return false, false, 0
	}
	r := c.L2.Access(addr, write)
	if r.Hit {
		return false, false, 0
	}
	return true, r.Writeback, r.VictimAddr
}

// ThreadModel parameterizes one synthetic thread's reference stream: a
// working set it mostly revisits plus a streaming component that forces
// cold misses, the knobs that control the model's L2 miss rate.
type ThreadModel struct {
	// WorkingSetLines is the number of distinct hot lines the thread loops
	// over; sized below the L1 it yields hits, sized above the L2 it
	// produces capacity misses.
	WorkingSetLines int
	// StreamFrac is the fraction of references that walk a cold streaming
	// region (compulsory misses).
	StreamFrac float64
	// WriteFrac is the store fraction.
	WriteFrac float64
	// ReferencesPerCycle approximates issue intensity (loads+stores per
	// cycle per thread).
	ReferencesPerCycle float64
}

// TraceEngine drives synthetic threads against a cluster's caches and emits
// the resulting L2-miss trace — the COTSon substitute.
type TraceEngine struct {
	cluster *Cluster
	model   ThreadModel
	rng     *sim.Rand
	streams [ThreadsPerCluster]uint64 // per-thread stream cursor
	hot     [ThreadsPerCluster]uint64 // per-thread working-set base
	now     [ThreadsPerCluster]float64
}

// NewTraceEngine builds an engine for cluster c.
func NewTraceEngine(c *Cluster, model ThreadModel, seed uint64) *TraceEngine {
	if model.WorkingSetLines <= 0 || model.ReferencesPerCycle <= 0 {
		panic(fmt.Sprintf("cluster: invalid thread model %+v", model))
	}
	e := &TraceEngine{cluster: c, model: model, rng: sim.NewRand(seed)}
	for t := range e.hot {
		// Disjoint per-thread regions, offset per cluster.
		e.hot[t] = (uint64(c.ID)*ThreadsPerCluster + uint64(t)) << 32
		e.streams[t] = e.hot[t] | 1<<28
	}
	return e
}

// Step advances one thread by one reference and returns an L2-miss trace
// record when the reference (or the writeback it forced) misses to memory.
// The boolean reports whether a record was produced.
func (e *TraceEngine) Step(thread int) (trace.Record, bool) {
	m := e.model
	e.now[thread] += 1 / m.ReferencesPerCycle

	var addr uint64
	if e.rng.Float64() < m.StreamFrac {
		addr = e.streams[thread]
		e.streams[thread] += 64 // next line of the stream
	} else {
		line := uint64(e.rng.Intn(m.WorkingSetLines))
		addr = e.hot[thread] + line*64
	}
	write := e.rng.Float64() < m.WriteFrac

	miss, _, _ := e.cluster.Access(thread, addr, write)
	if !miss {
		return trace.Record{}, false
	}
	return trace.Record{
		Time:   sim.Time(e.now[thread]),
		Thread: uint16(e.cluster.ID*ThreadsPerCluster + thread),
		Addr:   addr,
		Write:  write,
	}, true
}

// Generate runs all threads round-robin until n trace records are produced,
// writing them to w.
func (e *TraceEngine) Generate(w *trace.Writer, n int) error {
	thread := 0
	for produced := 0; produced < n; {
		rec, ok := e.Step(thread)
		thread = (thread + 1) % ThreadsPerCluster
		if !ok {
			continue
		}
		if err := w.Write(rec); err != nil {
			return fmt.Errorf("cluster: generating trace: %w", err)
		}
		produced++
	}
	return nil
}
