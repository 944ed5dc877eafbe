package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// roundBarrier holds every job until w are running, then lets that round
// go and records the groups it held. A round that never fills (a worker
// idling while work remains) breaks the barrier after a timeout instead of
// hanging the test, and every later wait fails at once.
type roundBarrier struct {
	mu      sync.Mutex
	w       int
	groups  []int
	rounds  [][]int
	release chan struct{}
	broken  bool
}

func newRoundBarrier(w int) *roundBarrier {
	return &roundBarrier{w: w, release: make(chan struct{})}
}

func (b *roundBarrier) wait(group int) bool {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return false
	}
	ch := b.release
	if b.groups = append(b.groups, group); len(b.groups) == b.w {
		b.rounds = append(b.rounds, b.groups)
		b.groups = nil
		b.release = make(chan struct{})
		close(ch)
	}
	b.mu.Unlock()
	select {
	case <-ch:
		return true
	//lint:allow determinism a wall-clock bound on a test barrier that never fills, not simulation timing
	case <-time.After(10 * time.Second):
		b.mu.Lock()
		defer b.mu.Unlock()
		if !b.broken {
			b.broken = true
			close(b.release)
		}
		return false
	}
}

// TestPoolClaimsByGroup pins the claim rule with jobs that block until the
// pool's W workers are all running one: every job runs once, running jobs
// never share a group while there are at least as many groups as workers,
// and with fewer groups a worker takes a busy group's job instead of
// idling. Run's shards (i mod W) are groups that never share.
func TestPoolClaimsByGroup(t *testing.T) {
	const w = 4
	cases := []struct {
		name   string
		groups int
		group  func(i int) int
		shards bool // through Run, whose groups are the shards
		shared bool // a round may hold two jobs of one group
	}{
		// Neighbours share a group, so taking jobs in plain index order
		// would run two of one group at once.
		{name: "groups=workers", groups: w, group: func(i int) int { return i / 2 % w }},
		{name: "groups>workers", groups: 2*w + 1, group: func(i int) int { return i % (2*w + 1) }},
		{name: "groups<workers", groups: 2, group: func(i int) int { return i % 2 }, shared: true},
		{name: "Run", groups: w, group: func(i int) int { return i % w }, shards: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 12 * w
			counts := make([]int32, n)
			var mu sync.Mutex
			started := make([][]int, tc.groups) // per group, in start order
			b := newRoundBarrier(w)
			job := func(i int) {
				atomic.AddInt32(&counts[i], 1)
				mu.Lock()
				started[tc.group(i)] = append(started[tc.group(i)], i)
				mu.Unlock()
				if !b.wait(tc.group(i)) {
					t.Errorf("job %d: the pool never had %d jobs running", i, w)
				}
			}
			if tc.shards {
				NewPool(w).Run(context.Background(), n, job)
			} else {
				NewPool(w).run(context.Background(), n, tc.group, true, job)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("job %d ran %d times", i, c)
				}
			}
			if len(b.rounds) != n/w {
				t.Fatalf("%d full rounds, want %d", len(b.rounds), n/w)
			}
			for g, jobs := range started {
				if !tc.shared && !sort.IntsAreSorted(jobs) {
					t.Fatalf("group %d started its jobs out of order: %v", g, jobs)
				}
			}
			for r, round := range b.rounds {
				seen := map[int]bool{}
				for _, g := range round {
					if seen[g] && !tc.shared {
						t.Fatalf("round %d ran two jobs of group %d: %v", r, g, round)
					}
					seen[g] = true
				}
				if tc.shared && len(seen) != tc.groups {
					t.Fatalf("round %d ran groups %v, want all %d", r, round, tc.groups)
				}
			}
		})
	}
}

// TestPoolCancelStopsClaiming: once ctx is canceled no worker claims
// another job, and Run returns only after the running ones finish.
func TestPoolCancelStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, finished atomic.Int32
		NewPool(workers).run(ctx, 100, func(i int) int { return i % 5 }, true, func(i int) {
			if started.Add(1) == 10 {
				cancel()
			}
			finished.Add(1)
		})
		cancel()
		if s, f := started.Load(), finished.Load(); s != f || s < 10 || s >= 10+int32(workers) {
			t.Fatalf("workers=%d: %d jobs started and %d finished after a cancel at the 10th", workers, s, f)
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
	configs := []config.System{config.Corona(), config.Custom("", "lmesh", config.ECM, nil)}
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
