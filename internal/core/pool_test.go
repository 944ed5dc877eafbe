package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"corona/internal/config"
)

func TestPoolRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]int32, n)
		NewPool(workers).Run(context.Background(), n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if got := NewPool(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0).Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewPool(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(-3).Workers() = %d, want GOMAXPROCS", got)
	}
}

func TestPoolStaticSharding(t *testing.T) {
	// Job i must be claimed by shard i mod W, and each shard must see its
	// jobs in increasing order.
	// Shard k runs its residue class k, k+w, k+2w... strictly in order, so
	// the arrival order recorded per class must be increasing.
	const n, w = 40, 4
	var mu sync.Mutex
	perShard := map[int][]int{}
	NewPool(w).Run(context.Background(), n, func(i int) {
		mu.Lock()
		perShard[i%w] = append(perShard[i%w], i)
		mu.Unlock()
	})
	for shard, jobs := range perShard {
		for k := 1; k < len(jobs); k++ {
			if jobs[k] <= jobs[k-1] {
				t.Fatalf("shard %d saw jobs out of order: %v", shard, jobs)
			}
		}
		if len(jobs) != n/w {
			t.Fatalf("shard %d ran %d jobs, want %d", shard, len(jobs), n/w)
		}
	}
}

func TestPoolPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
	}()
	NewPool(4).Run(context.Background(), 16, func(i int) {
		if i == 5 {
			panic("boom: simulated deadlock")
		}
	})
}

func TestCellSeedDistinctAndStable(t *testing.T) {
	// Every workload must get its own seed (distinct traffic per figure
	// row), and the derivation must be stable across calls.
	seen := map[uint64]string{}
	for _, spec := range AllWorkloads() {
		s := CellSeed(42, spec.Name)
		if s == 0 {
			t.Fatalf("zero derived seed for %s", spec.Name)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s and %s", spec.Name, prev)
		}
		seen[s] = spec.Name
		if s != CellSeed(42, spec.Name) {
			t.Fatal("CellSeed not stable")
		}
	}
}

func TestSweepSharesSeedAcrossRow(t *testing.T) {
	// Within one figure row, all five configurations must face the same
	// derived seed — speedup columns compare machines under identical
	// offered traffic, exactly as a direct same-seed Run pair would.
	spec := AllWorkloads()[0]
	s := NewSweep(600, 42)
	s.Workloads = s.Workloads[:1]
	mustSweep(t, NewClient(WithWorkers(4)), s)
	want := mustRun(t, config.Corona(), spec, 600, CellSeed(42, spec.Name))
	got := s.Results[0][len(s.Configs)-1] // XBar/OCM column
	if got != want {
		t.Fatalf("sweep cell differs from direct run at the derived seed:\n%+v\nvs\n%+v", got, want)
	}
}

// sweepTables renders all four figure tables as one string, the byte-exact
// artifact the determinism guarantee is stated over.
func sweepTables(s *Sweep) string {
	return s.Figure8().String() + s.Figure9().String() +
		s.Figure10().String() + s.Figure11().String()
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	// The headline guarantee (docs/DETERMINISM.md): WithWorkers(1) and
	// WithWorkers(N) produce byte-identical Figure 8-11 tables. A trimmed
	// 3-workload matrix keeps the test fast; the full-matrix check runs in
	// the benchmark suite.
	trim := func() *Sweep {
		s := NewSweep(500, 42)
		s.Workloads = s.Workloads[:3]
		return s
	}
	seq := trim()
	mustSweep(t, NewClient(WithWorkers(1)), seq)
	for _, workers := range []int{0, 2, 8} {
		par := trim()
		mustSweep(t, NewClient(WithWorkers(workers)), par)
		if got, want := sweepTables(par), sweepTables(seq); got != want {
			t.Fatalf("WithWorkers(%d) tables differ from sequential:\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

func TestSweepCache(t *testing.T) {
	dir := t.TempDir()
	run := func() (*Sweep, int, int) {
		s := NewSweep(300, 7)
		s.Workloads = s.Workloads[:2]
		cells := mustSweep(t, NewClient(WithCacheDir(dir)), s)
		hits := cacheHits(cells)
		return s, hits, len(cells) - hits
	}

	first, hits, misses := run()
	if hits != 0 || misses != 10 {
		t.Fatalf("cold cache: %d hits / %d misses, want 0/10", hits, misses)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "cell-*.json"))
	if err != nil || len(entries) != 10 {
		t.Fatalf("cache holds %d entries (err=%v), want 10", len(entries), err)
	}

	second, hits, misses := run()
	if hits != 10 || misses != 0 {
		t.Fatalf("warm cache: %d hits / %d misses, want 10/0", hits, misses)
	}
	if sweepTables(second) != sweepTables(first) {
		t.Fatal("cached sweep tables differ from the live run")
	}

	// A different seed must invalidate every cell, not reuse entries.
	s3 := NewSweep(300, 8)
	s3.Workloads = s3.Workloads[:2]
	if reused := cacheHits(mustSweep(t, NewClient(WithCacheDir(dir)), s3)); reused != 0 {
		t.Fatalf("changed seed reused %d cached cells", reused)
	}

	// Corrupt entries degrade to misses, never to wrong results.
	for _, e := range entries {
		if err := os.WriteFile(e, []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	repaired, hits, _ := run()
	if hits != 0 {
		t.Fatalf("corrupt cache produced %d hits", hits)
	}
	if sweepTables(repaired) != sweepTables(first) {
		t.Fatal("repaired sweep differs from original")
	}
}

func TestSweepCacheInvalidatedByParameters(t *testing.T) {
	// The cache key fingerprints the full config and workload structs, so
	// changing a parameter behind an unchanged display name must miss
	// instead of resurfacing the old parameters' result.
	dir := t.TempDir()
	run := func(demand float64, mshrs int) (hits int) {
		s := NewSweep(300, 7)
		s.Workloads = s.Workloads[:1]
		s.Workloads[0].DemandTBs = demand
		for i := range s.Configs {
			s.Configs[i].MSHRs = mshrs
		}
		return cacheHits(mustSweep(t, NewClient(WithCacheDir(dir)), s))
	}
	if h := run(2, 64); h != 0 {
		t.Fatalf("cold cache: %d hits", h)
	}
	if h := run(2, 64); h != 5 {
		t.Fatalf("warm cache: %d hits, want 5", h)
	}
	if h := run(3, 64); h != 0 {
		t.Fatalf("changed workload demand (same name) reused %d cached cells", h)
	}
	if h := run(2, 16); h != 0 {
		t.Fatalf("changed config MSHRs (same name) reused %d cached cells", h)
	}
}

// TestCompareOrderAndSeeds: Compare returns results in argument order,
// independent of its worker count, and its seed reaches the simulation.
func TestCompareOrderAndSeeds(t *testing.T) {
	spec := quickSpec(1)
	configs := []config.System{config.Corona(), config.Default(config.LMesh, config.ECM)}
	compare := func(workers int, seed uint64) []Result {
		t.Helper()
		res, err := NewClient(WithWorkers(workers)).Compare(context.Background(), spec, 800, seed, configs...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par, seqr := compare(3, 3), compare(1, 3)
	for i := range configs {
		if par[i] != seqr[i] {
			t.Fatalf("cell %d differs between parallel and sequential", i)
		}
		if par[i].Config != configs[i].Name() {
			t.Fatalf("cell %d result out of order: got %s", i, par[i].Config)
		}
	}
	if other := compare(3, 4); par[0].Cycles == other[0].Cycles && par[0].NetBytes == other[0].NetBytes {
		t.Fatal("different seeds produced identical cells (suspicious)")
	}
}
