package core

import (
	"context"
	"fmt"
	"slices"

	"corona/internal/config"
	"corona/internal/power"
	"corona/internal/sim"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// Result is the outcome of one (configuration, workload) simulation — one
// bar in each of Figures 8-11.
type Result struct {
	Config   string
	Workload string
	Requests int

	// Cycles is the simulated runtime; Figure 8 normalizes its inverse.
	Cycles sim.Time
	// AchievedTBs is Figure 9's rate of communication with main memory.
	AchievedTBs float64
	// MeanLatencyNs and P99LatencyNs report Figure 10's L2 miss latency.
	// P99LatencyNs is the exact nearest-rank order statistic of every
	// request's latency, at any request count.
	MeanLatencyNs float64
	P99LatencyNs  float64
	// NetworkPowerW is Figure 11's on-chip network power; MemoryPowerW is
	// the off-stack memory interconnect power.
	NetworkPowerW float64
	MemoryPowerW  float64

	// Diagnostics.
	NetMessages   uint64
	NetBytes      uint64
	HopTraversals uint64
	// XBarUtil is mean data-channel occupancy for crossbar-family fabrics
	// (those that count noc.Stats.ChannelCycles); mesh-style fabrics leave
	// it zero.
	XBarUtil float64
	// KernelEvents is the number of discrete events the simulation kernel
	// dispatched to produce this cell — the denominator for simulator
	// throughput (events/sec) reporting.
	KernelEvents uint64
}

// Speedup returns other's runtime divided by r's (how much faster r is).
func (r Result) Speedup(baseline Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// Runner replays a materialized miss stream against a System until every
// record has issued and completed — a fixed number of network requests (L2
// misses), as the paper does ("We ran each simulation for a predetermined
// number of network requests").
type Runner struct {
	sys      *System
	name     string
	requests int

	buckets [][]trace.Record // unissued records per cluster; the head pops once it issues
	waiting []bool           // a timed wake-up is scheduled
}

// NewTraceRunner builds a runner that replays recs (annotated L2 misses,
// e.g. from a trace file or the cluster trace engine) on sys. Records are
// assigned to clusters by thread id with threadsPerCluster threads each, and
// must be per-cluster time-monotone. A record whose thread maps outside the
// machine is invalid input and returns a *ConfigError.
func NewTraceRunner(sys *System, recs []trace.Record, threadsPerCluster int) (*Runner, error) {
	if threadsPerCluster <= 0 {
		return nil, &ConfigError{Name: "trace",
			Err: fmt.Errorf("core: threads-per-cluster must be positive, got %d", threadsPerCluster)}
	}
	buckets := make([][]trace.Record, sys.Cfg.Clusters)
	for _, rec := range recs {
		c := rec.Cluster(threadsPerCluster)
		if c < 0 || c >= sys.Cfg.Clusters {
			return nil, &ConfigError{Name: "trace",
				Err: fmt.Errorf("core: trace thread %d maps to cluster %d, out of range [0,%d)",
					rec.Thread, c, sys.Cfg.Clusters)}
		}
		buckets[c] = append(buckets[c], rec)
	}
	return ReplayRunner(sys, "trace", buckets)
}

// MaterializeStream generates spec's complete miss stream for a machine of
// `clusters` endpoints — `requests` records split evenly across clusters,
// bucketed by cluster — the paper's "capture the miss stream once" step.
// Each cluster has its own RNG, so the stream depends only on (spec,
// clusters, requests, seed), never on the machine that replays it: the
// sweep engine materializes each row once and shares it, read-only, across
// the row's cells and workers (ReplayRunner).
func MaterializeStream(spec traffic.Spec, clusters, requests int, seed uint64) [][]trace.Record {
	g := traffic.NewGenerator(spec, clusters, seed)
	buckets := make([][]trace.Record, clusters)
	base, extra := requests/clusters, requests%clusters
	for c := range buckets {
		n := base
		if c < extra {
			n++
		}
		bucket := make([]trace.Record, n)
		for i := range bucket {
			bucket[i] = g.Next(c)
		}
		buckets[c] = bucket
	}
	return buckets
}

// ReplayRunner builds a runner that replays a materialized per-cluster
// stream (MaterializeStream) on sys under the workload's display name. The
// runner takes only fresh slice headers over the shared buckets, never
// writing through them, so one materialized row is safely replayed by
// concurrent cells.
func ReplayRunner(sys *System, name string, buckets [][]trace.Record) (*Runner, error) {
	if len(buckets) != sys.Cfg.Clusters {
		return nil, &ConfigError{Name: "trace", Err: fmt.Errorf(
			"core: materialized stream has %d cluster buckets, system %d", len(buckets), sys.Cfg.Clusters)}
	}
	r := &Runner{
		sys:     sys,
		name:    name,
		buckets: slices.Clone(buckets),
		waiting: make([]bool, len(buckets)),
	}
	for _, b := range buckets {
		r.requests += len(b)
	}
	sys.Latency.Reset(r.requests)
	sys.replay = r
	return r, nil
}

// issueWake is the runner's typed timed wake-up: the cluster's next record
// lies in the future, so issue resumes when the clock reaches it.
type issueWake Runner

func (e *issueWake) OnEvent(_ sim.Time, data uint64) {
	r := (*Runner)(e)
	r.waiting[data] = false
	r.pump(int(data))
}

// pump issues as many of cluster's trace records as timestamps and MSHR
// capacity allow.
func (r *Runner) pump(cluster int) {
	for len(r.buckets[cluster]) > 0 {
		rec := &r.buckets[cluster][0]
		if rec.Time > r.sys.K.Now() {
			if !r.waiting[cluster] {
				r.waiting[cluster] = true
				r.sys.K.AtEvent(rec.Time, (*issueWake)(r), uint64(cluster))
			}
			return
		}
		if !r.sys.Issue(cluster, rec.Addr, rec.Write) {
			return // MSHR full; the free hook re-pumps
		}
		r.buckets[cluster] = r.buckets[cluster][1:]
	}
}

// cancelCheckEvents is how many kernel events the replay loop dispatches
// between context checks. The typed kernel sustains tens of millions of
// events per second, so a few thousand events bound cancellation latency to
// well under a millisecond while keeping the check off the per-event path.
const cancelCheckEvents = 4096

// Run executes the replay to completion and returns the Result. The replay
// loop checks ctx between batches of kernel events, so a canceled or expired
// context stops a long cell promptly with a *CanceledError recording how far
// it got. A deadlock (event queue empty before all requests retire) is
// reported as an error rather than a panic: behind a server it is a request
// failure, not a process failure.
func (r *Runner) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, &CanceledError{Completed: 0, Total: r.requests, Err: err}
	}
	// The system pins the runner, and through it the replayed stream, only
	// until the replay returns: a pooled machine must not keep a finished
	// cell's stream alive.
	defer func() { r.sys.replay = nil }()
	for c := 0; c < r.sys.Cfg.Clusters; c++ {
		r.pump(c)
	}
	done := ctx.Done()
	for r.sys.Completed() < r.requests {
		// The retirement that completes the replay stops the kernel, so a
		// batch ends on exactly that event.
		if r.sys.K.RunLimit(cancelCheckEvents) == 0 {
			return Result{}, fmt.Errorf("core: deadlock with %d of %d requests completed",
				r.sys.Completed(), r.requests)
		}
		if done == nil || r.sys.Completed() >= r.requests {
			continue
		}
		select {
		case <-done:
			return Result{}, &CanceledError{
				Completed: r.sys.Completed(), Total: r.requests, Err: ctx.Err()}
		default:
		}
	}
	return r.collect(), nil
}

func (r *Runner) collect() Result {
	sys := r.sys
	elapsed := sys.K.Now()
	ns := sys.NetworkStats()
	res := Result{
		Config:        sys.Cfg.Name(),
		Workload:      r.name,
		Requests:      r.requests,
		Cycles:        elapsed,
		MeanLatencyNs: sys.Latency.Mean(),
		P99LatencyNs:  sys.Latency.P99(),
		NetMessages:   ns.Messages,
		NetBytes:      ns.Bytes,
		HopTraversals: ns.HopTraversals,
		KernelEvents:  sys.K.Executed(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.AchievedTBs = float64(sys.WireBytes) / sec / 1e12
	}
	if sys.fabric.PowerW != nil {
		res.NetworkPowerW = sys.fabric.PowerW(ns, elapsed)
	}
	if ns.ChannelCycles > 0 {
		res.XBarUtil = float64(ns.ChannelCycles) / (float64(elapsed) * float64(sys.Net.Clusters()))
	}
	memBytes := sys.MemoryBytesMoved()
	if sys.Cfg.Mem == config.OCM {
		res.MemoryPowerW = power.OCMInterconnectW(memBytes, elapsed)
	} else {
		res.MemoryPowerW = power.ECMInterconnectW(memBytes, elapsed)
	}
	return res
}

// Run is the one-call convenience: build a system for cfg, replay spec's
// materialized stream of `requests` misses at the given seed, and return
// the Result. Invalid configurations and non-positive request counts
// surface as *ConfigError, cancellation as *CanceledError.
func Run(ctx context.Context, cfg config.System, spec traffic.Spec, requests int, seed uint64) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := checkRequests(requests); err != nil {
		return Result{}, err
	}
	r, err := ReplayRunner(sys, spec.Name, MaterializeStream(spec, sys.Cfg.Clusters, requests, seed))
	if err != nil {
		return Result{}, err
	}
	return r.Run(ctx)
}
