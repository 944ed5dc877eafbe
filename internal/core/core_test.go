package core

import (
	"context"
	"testing"

	"corona/internal/config"
	"corona/internal/sim"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// quickSpec is a small uniform workload for unit tests.
func quickSpec(demand float64) traffic.Spec {
	return traffic.Spec{Name: "test", Kind: traffic.Uniform, DemandTBs: demand, WriteFrac: 0.3}
}

// mustRun is the test-side shorthand for the context-aware Run: background
// context, fatal on error.
func mustRun(t testing.TB, cfg config.System, spec traffic.Spec, requests int, seed uint64) Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, spec, requests, seed)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", cfg.Name(), spec.Name, err)
	}
	return res
}

// sweep submits s on c, drains the job, and returns its cells in
// completion order with the job's terminal error.
func sweep(c *Client, s *Sweep, opts ...Option) ([]CellResult, error) {
	job, err := c.Submit(context.Background(), s, opts...)
	if err != nil {
		return nil, err
	}
	var cells []CellResult
	for cell := range job.Results() {
		cells = append(cells, cell)
	}
	return cells, job.Wait(context.Background())
}

// mustSweep runs s to completion on c and returns its cells in completion
// order, fatal on error.
func mustSweep(t testing.TB, c *Client, s *Sweep, opts ...Option) []CellResult {
	t.Helper()
	cells, err := sweep(c, s, opts...)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return cells
}

// cacheHits counts the cells satisfied from the on-disk cache.
func cacheHits(cells []CellResult) int {
	hits := 0
	for _, cell := range cells {
		if cell.Cached {
			hits++
		}
	}
	return hits
}

// mustSystem builds a system, fatal on error.
func mustSystem(t testing.TB, cfg config.System) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem(%s): %v", cfg.Name(), err)
	}
	return sys
}

func TestRunCompletesAllConfigs(t *testing.T) {
	for _, cfg := range config.Combos() {
		res := mustRun(t, cfg, quickSpec(1), 2000, 42)
		if res.Requests != 2000 {
			t.Fatalf("%s: requests = %d", cfg.Name(), res.Requests)
		}
		if res.Cycles == 0 {
			t.Fatalf("%s: zero runtime", cfg.Name())
		}
		if res.MeanLatencyNs <= 0 {
			t.Fatalf("%s: no latency recorded", cfg.Name())
		}
		if res.AchievedTBs <= 0 {
			t.Fatalf("%s: no bandwidth recorded", cfg.Name())
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, config.Corona(), quickSpec(2), 3000, 7)
	b := mustRun(t, config.Corona(), quickSpec(2), 3000, 7)
	if a.Cycles != b.Cycles || a.MeanLatencyNs != b.MeanLatencyNs || a.NetBytes != b.NetBytes {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
	c := mustRun(t, config.Corona(), quickSpec(2), 3000, 8)
	if a.Cycles == c.Cycles && a.NetBytes == c.NetBytes {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestLowDemandAllConfigsEquivalent(t *testing.T) {
	// A 0.3 TB/s workload fits even LMesh/ECM: all five configs should run
	// it in roughly the same time (speedup ~1), like Barnes et al. in Fig 8.
	spec := quickSpec(0.3)
	spec.LocalFrac = 0.4
	base := mustRun(t, config.Custom("", "lmesh", config.ECM, nil), spec, 4000, 3)
	for _, cfg := range config.Combos()[1:] {
		r := mustRun(t, cfg, spec, 4000, 3)
		sp := r.Speedup(base)
		if sp < 0.9 || sp > 1.5 {
			t.Errorf("%s speedup on low-demand workload = %.2f, want ~1", cfg.Name(), sp)
		}
	}
}

func TestHighDemandOrdering(t *testing.T) {
	// Figure 8's robust pairwise orderings on a bandwidth-bound workload:
	// OCM beats ECM on the same mesh, HMesh beats LMesh on the same memory,
	// and XBar/OCM is the fastest of all five. (The paper does not assert a
	// total order: LMesh/OCM vs HMesh/ECM depends on which of network or
	// memory binds first.)
	spec := quickSpec(5)
	res := map[string]Result{}
	for _, cfg := range config.Combos() {
		res[cfg.Name()] = mustRun(t, cfg, spec, 30000, 9)
	}
	faster := func(a, b string) {
		t.Helper()
		if res[a].Cycles >= res[b].Cycles {
			t.Errorf("%s (%d cycles) not faster than %s (%d cycles)",
				a, res[a].Cycles, b, res[b].Cycles)
		}
	}
	faster("HMesh/OCM", "HMesh/ECM")
	faster("HMesh/ECM", "LMesh/ECM")
	faster("HMesh/OCM", "LMesh/OCM")
	for _, other := range []string{"HMesh/OCM", "LMesh/OCM", "HMesh/ECM", "LMesh/ECM"} {
		faster("XBar/OCM", other)
	}
	// LMesh/OCM must be at least as fast as LMesh/ECM (OCM can never hurt).
	if res["LMesh/OCM"].Cycles > res["LMesh/ECM"].Cycles {
		t.Errorf("LMesh/OCM (%d) slower than LMesh/ECM (%d)",
			res["LMesh/OCM"].Cycles, res["LMesh/ECM"].Cycles)
	}
}

func TestECMBandwidthCeiling(t *testing.T) {
	// Saturating uniform traffic on an ECM system cannot exceed ~0.96 TB/s
	// of memory bandwidth (Table 4).
	r := mustRun(t, config.Custom("", "hmesh", config.ECM, nil), quickSpec(5), 6000, 5)
	if r.AchievedTBs > 1.1 {
		t.Errorf("ECM achieved %v TB/s, above its 0.96 TB/s ceiling", r.AchievedTBs)
	}
	if r.AchievedTBs < 0.4 {
		t.Errorf("ECM achieved only %v TB/s; should approach its ceiling under load", r.AchievedTBs)
	}
}

func TestHotSpotMemoryLimited(t *testing.T) {
	// Hot Spot channels everything through one controller: OCM gives a big
	// win over ECM, but the crossbar adds little on top (the paper's
	// exceptional case).
	hot := traffic.Spec{Name: "hot", Kind: traffic.HotSpot, DemandTBs: 5, HotTarget: 0}
	ecm := mustRun(t, config.Custom("", "hmesh", config.ECM, nil), hot, 3000, 11)
	ocm := mustRun(t, config.Custom("", "hmesh", config.OCM, nil), hot, 3000, 11)
	xb := mustRun(t, config.Corona(), hot, 3000, 11)
	if sp := ocm.Speedup(ecm); sp < 3 {
		t.Errorf("OCM over ECM on Hot Spot = %.2f, want large (single-MC bandwidth ratio)", sp)
	}
	if sp := xb.Speedup(ocm); sp > 1.5 {
		t.Errorf("XBar over HMesh on Hot Spot = %.2f, want ~1 (memory-limited)", sp)
	}
	// Achieved bandwidth clamps near one controller's 160 GB/s.
	if xb.AchievedTBs > 0.35 {
		t.Errorf("Hot Spot achieved %v TB/s through one MC, want <= ~0.22", xb.AchievedTBs)
	}
}

func TestLocalTrafficBypassesNetwork(t *testing.T) {
	spec := quickSpec(1)
	spec.LocalFrac = 1.0 // everything cluster-local
	res, err := Run(context.Background(), config.Corona(), spec, 1000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetMessages != 0 {
		t.Fatalf("local-only workload sent %d network messages", res.NetMessages)
	}
	if res.AchievedTBs <= 0 {
		t.Fatal("local traffic should still count as memory bandwidth")
	}
}

func TestXBarLatencyBeatsMesh(t *testing.T) {
	// Uncontended, the crossbar's ~2-cycle transit beats the mesh's 5
	// cycles/hop: mean latency must be lower on XBar/OCM than LMesh/OCM.
	spec := quickSpec(0.5)
	xb := mustRun(t, config.Corona(), spec, 3000, 17)
	lm := mustRun(t, config.Custom("", "lmesh", config.OCM, nil), spec, 3000, 17)
	if xb.MeanLatencyNs >= lm.MeanLatencyNs {
		t.Errorf("XBar latency %.1f ns >= LMesh %.1f ns", xb.MeanLatencyNs, lm.MeanLatencyNs)
	}
}

func TestPowerAccounting(t *testing.T) {
	spec := quickSpec(3)
	xb := mustRun(t, config.Corona(), spec, 3000, 19)
	if xb.NetworkPowerW != 26 {
		t.Errorf("crossbar power = %v, want constant 26 W", xb.NetworkPowerW)
	}
	hm := mustRun(t, config.Custom("", "hmesh", config.OCM, nil), spec, 3000, 19)
	if hm.NetworkPowerW <= 0 {
		t.Error("mesh dynamic power not recorded")
	}
	if hm.HopTraversals == 0 {
		t.Error("hop traversals not counted")
	}
	if xb.MemoryPowerW <= 0 || hm.MemoryPowerW <= 0 {
		t.Error("memory interconnect power not recorded")
	}
	// ECM memory power must dwarf OCM's at similar traffic.
	em := mustRun(t, config.Custom("", "hmesh", config.ECM, nil), spec, 3000, 19)
	if em.MemoryPowerW <= xb.MemoryPowerW {
		t.Errorf("ECM memory power %v W <= OCM %v W at lower bandwidth", em.MemoryPowerW, xb.MemoryPowerW)
	}
}

func TestMSHRBackPressure(t *testing.T) {
	// With tiny MSHRs a saturating workload still completes, just slower.
	cfg := config.Corona()
	cfg.MSHRs = 2
	small := mustRun(t, cfg, quickSpec(0), 2000, 23)
	big := mustRun(t, config.Corona(), quickSpec(0), 2000, 23)
	if small.Cycles <= big.Cycles {
		t.Errorf("2-MSHR run (%d cycles) not slower than 64-MSHR run (%d cycles)",
			small.Cycles, big.Cycles)
	}
}

func TestSweepSmall(t *testing.T) {
	s := NewSweep(400, 1)
	s.Workloads = s.Workloads[:2] // Uniform + Hot Spot only, for speed
	job, err := NewClient(WithWorkers(1)).Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for cell := range job.Results() {
		if seen[cell.Index] {
			t.Errorf("cell %d arrived twice", cell.Index)
		}
		seen[cell.Index] = true
		if done, total := job.Progress(); done < len(seen) || total != 10 {
			t.Errorf("Progress() = %d/%d after %d cells arrived", done, total, len(seen))
		}
		if cell.Cached {
			t.Error("cache hit reported with caching disabled")
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2*5 {
		t.Fatalf("sweep ran %d cells, want 10", len(seen))
	}
	if done, total := job.Progress(); done != 10 || total != 10 {
		t.Fatalf("final Progress() = %d/%d, want 10/10", done, total)
	}
	f8 := s.Figure8().String()
	if len(f8) == 0 {
		t.Fatal("empty Figure 8 table")
	}
	for _, tab := range []string{s.Figure9().String(), s.Figure10().String(), s.Figure11().String()} {
		if len(tab) == 0 {
			t.Fatal("empty figure table")
		}
	}
	sp := s.Speedups(4) // XBar/OCM
	if len(sp) != 2 || sp[0] <= 0 {
		t.Fatalf("speedups = %v", sp)
	}
	a, b := s.GeoMeanSummary(0, 2)
	if a <= 0 || b <= 0 {
		t.Fatalf("geomeans = %v, %v", a, b)
	}
}

func TestMergedMissesCountOnce(t *testing.T) {
	// Force heavy same-line merging: a hot-spot spec with a single address.
	sys := mustSystem(t, config.Corona())
	issued := 0
	for i := 0; i < 10; i++ {
		if sys.Issue(1, 0x40000, false) {
			issued++
		}
	}
	for sys.Completed() < issued {
		if !sys.K.Step() {
			t.Fatalf("deadlock at %d of %d", sys.Completed(), issued)
		}
	}
	// One primary miss, nine merges: one network transaction.
	if sys.NetworkStats().Messages != 2 { // request + response
		t.Errorf("messages = %d, want 2 (merged misses share one transaction)",
			sys.NetworkStats().Messages)
	}
	if sys.Completed() != 10 {
		t.Errorf("completed = %d, want 10", sys.Completed())
	}
}

// TestP99ExactAtLongRuns pins Figure 10's P99 one request past 2^17 and
// at 400,000 requests to the order statistic of a sorted copy of every
// latency of those runs: 16,692 and 21,874 cycles.
func TestP99ExactAtLongRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("531,073 simulated requests")
	}
	spec, _ := FindWorkload("Uniform")
	for _, c := range []struct {
		requests int
		cycles   sim.Time
	}{{131073, 16692}, {400000, 21874}} {
		res := mustRun(t, config.Custom("", "lmesh", config.ECM, nil), spec, c.requests, 42)
		if want := c.cycles.Ns(); res.P99LatencyNs != want {
			t.Errorf("%d requests: P99 = %.1f ns, want %.1f", c.requests, res.P99LatencyNs, want)
		}
	}
}

func TestTraceReplay(t *testing.T) {
	// Build a small trace by hand and replay it on two configurations; the
	// faster machine must finish sooner, and both must complete every record.
	var recs []trace.Record
	rng := sim.NewRand(31)
	for i := 0; i < 2000; i++ {
		dst := rng.Intn(64)
		recs = append(recs, trace.Record{
			Time:   sim.Time(i / 4),
			Thread: uint16(rng.Intn(1024)),
			Addr:   (rng.Uint64()%(1<<20)*64 + uint64(dst)) * 64,
			Write:  rng.Intn(3) == 0,
		})
	}
	// Per-cluster monotonicity: sort is implied by Time being i/4 and thread
	// assignment random — bucket order preserves global order, so fine.
	replay := func(cfg config.System) Result {
		t.Helper()
		sys := mustSystem(t, cfg)
		r, err := NewTraceRunner(sys, recs, 16)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rf := replay(config.Corona())
	rs := replay(config.Custom("", "lmesh", config.ECM, nil))
	if rf.Requests != 2000 || rs.Requests != 2000 {
		t.Fatalf("replay requests = %d/%d, want 2000", rf.Requests, rs.Requests)
	}
	if rf.Cycles >= rs.Cycles {
		t.Errorf("XBar/OCM replay (%d cycles) not faster than LMesh/ECM (%d)", rf.Cycles, rs.Cycles)
	}
	if rf.Workload != "trace" {
		t.Errorf("workload label = %q, want trace", rf.Workload)
	}
}
