package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/config"
	"corona/internal/memory"
	"corona/internal/noc"
	"corona/internal/sim"
)

// smallSweep is a 5-config x 2-workload matrix, small enough for unit tests
// but wide enough that a mid-sweep cancellation leaves real work undone.
func smallSweep(requests int, seed uint64) *Sweep {
	s := NewSweep(requests, seed)
	s.Workloads = s.Workloads[:2]
	return s
}

func TestClientRunMatchesDirectRun(t *testing.T) {
	spec := quickSpec(1)
	want := mustRun(t, config.Corona(), spec, 1500, 11)
	got, err := NewClient().Run(context.Background(), config.Corona(), spec, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Client.Run differs from core.Run:\n%+v\nvs\n%+v", got, want)
	}
}

func TestClientTypedConfigErrors(t *testing.T) {
	bad := config.Custom("", "warp-drive", config.OCM, nil)
	_, err := NewClient().Run(context.Background(), bad, quickSpec(1), 100, 1)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("unknown fabric: got %v, want *ConfigError", err)
	}
	if ce.Name == "" {
		t.Error("ConfigError.Name empty, want the config's display name")
	}

	if _, err := NewClient().Submit(context.Background(), NewMatrixSweep(
		[]config.System{bad}, AllWorkloads()[:1], 100, 1)); !errors.As(err, &ce) {
		t.Fatalf("Submit with bad config: got %v, want synchronous *ConfigError", err)
	}
	zero := NewSweep(0, 1)
	if _, err := NewClient().Submit(context.Background(), zero); !errors.As(err, &ce) {
		t.Fatalf("Submit with zero requests: got %v, want *ConfigError", err)
	}
	for _, requests := range []int{0, -5} {
		if _, err := NewClient().Run(context.Background(), config.Corona(), quickSpec(1), requests, 1); !errors.As(err, &ce) {
			t.Fatalf("Run with %d requests: got %v, want *ConfigError", requests, err)
		}
		if _, err := NewClient().Compare(context.Background(), quickSpec(1), requests, 1); !errors.As(err, &ce) {
			t.Fatalf("Compare with %d requests: got %v, want *ConfigError", requests, err)
		}
	}

	// A memory override the controller cannot build is the caller's input,
	// rejected before any simulation starts rather than panicking in it.
	for name, edit := range map[string]func(*memory.Config){
		"zero banks":        func(m *memory.Config) { m.Banks = 0 },
		"NaN in rate":       func(m *memory.Config) { m.InBytesPerCycle = math.NaN() },
		"+Inf in rate":      func(m *memory.Config) { m.InBytesPerCycle = math.Inf(1) },
		"NaN out rate":      func(m *memory.Config) { m.OutBytesPerCycle = math.NaN() },
		"+Inf ECM out rate": func(m *memory.Config) { m.HalfDuplex, m.OutBytesPerCycle = false, math.Inf(1) },
	} {
		mem := memory.OCMConfig()
		edit(&mem)
		cfg := config.Corona()
		cfg.MemOverride = &mem
		if _, err := NewClient().Run(context.Background(), cfg, quickSpec(1), 100, 1); !errors.As(err, &ce) {
			t.Fatalf("Run with %s: got %v, want *ConfigError", name, err)
		}
		if _, err := NewClient().Compare(context.Background(), quickSpec(1), 100, 1, cfg); !errors.As(err, &ce) {
			t.Fatalf("Compare with %s: got %v, want *ConfigError", name, err)
		}
		if _, err := NewClient().Submit(context.Background(), NewMatrixSweep(
			[]config.System{cfg}, AllWorkloads()[:1], 100, 1)); !errors.As(err, &ce) {
			t.Fatalf("Submit with %s: got %v, want synchronous *ConfigError", name, err)
		}
	}

	// A canceled run is not a config problem, and must say so in its type.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewClient().Run(ctx, config.Corona(), quickSpec(1), 100, 1)
	var cancelErr *CanceledError
	if !errors.As(err, &cancelErr) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: got %v, want *CanceledError wrapping context.Canceled", err)
	}
	if errors.As(err, &ce) {
		t.Fatalf("cancellation misreported as *ConfigError: %v", err)
	}
}

func TestJobStreamsEveryCell(t *testing.T) {
	s := smallSweep(300, 5)
	total := len(s.Configs) * len(s.Workloads)
	job, err := NewClient(WithWorkers(4)).Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for cell := range job.Results() {
		if seen[cell.Index] {
			t.Errorf("cell %d streamed twice", cell.Index)
		}
		seen[cell.Index] = true
		if cell.Row != cell.Index/len(s.Configs) || cell.Col != cell.Index%len(s.Configs) {
			t.Errorf("cell %d has row/col %d/%d", cell.Index, cell.Row, cell.Col)
		}
		if want := s.Workloads[cell.Row].Name; cell.Workload != want {
			t.Errorf("cell %d workload = %q, want %q", cell.Index, cell.Workload, want)
		}
		if cell.Result.Cycles == 0 {
			t.Errorf("cell %d has zero runtime", cell.Index)
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("streamed %d cells, want %d", len(seen), total)
	}
	if done, tot := job.Progress(); done != total || tot != total {
		t.Fatalf("Progress() = %d/%d, want %d/%d", done, tot, total, total)
	}
	// The streamed cells and the barrier-side grid agree: what you consumed
	// incrementally is exactly what Figure tables render.
	ref := smallSweep(300, 5)
	mustSweep(t, NewClient(WithWorkers(1)), ref)
	if sweepTables(job.Sweep()) != sweepTables(ref) {
		t.Fatal("streamed job tables differ from a sequential run")
	}
}

// blockingFabrics numbers the fabrics blockingFabric registers, since the
// registry is process-wide and rejects a name twice.
var blockingFabrics atomic.Int64

// blockingFabric registers a fresh fabric that builds the "xbar" crossbar,
// but only once release is called: every Build first closes building, then
// waits. A cell on the returned configuration therefore holds its worker in
// NewSystem for as long as a test needs, at a point the test can observe.
func blockingFabric(t *testing.T) (cfg config.System, building <-chan struct{}, release func()) {
	t.Helper()
	fab, ok := noc.Lookup("xbar")
	if !ok {
		t.Fatal("xbar fabric not registered")
	}
	started, released := make(chan struct{}), make(chan struct{})
	var startOnce, releaseOnce sync.Once
	build := fab.Build
	fab.Name = fmt.Sprintf("blocking-xbar-%d", blockingFabrics.Add(1))
	fab.Display = fab.Name
	fab.Build = func(k *sim.Kernel, p noc.FabricParams) (noc.Network, error) {
		startOnce.Do(func() { close(started) })
		<-released
		return build(k, p)
	}
	noc.Register(fab)
	release = func() { releaseOnce.Do(func() { close(released) }) }
	t.Cleanup(release)
	return config.Custom("", fab.Name, config.OCM, nil), started, release
}

// TestSweepCancelLeavesCacheConsistent is the acceptance-criterion
// cancellation test: cancel a job's submit context mid-flight, then
// resubmit against the same cache — the resumed sweep must complete from
// cache plus fresh cells and render byte-identical tables to an
// uninterrupted run. The matrix's first column builds on a blocking fabric,
// and the cancel lands while that column's first cell is held in
// NewSystem, so the interrupted job cannot have finished every cell.
func TestSweepCancelLeavesCacheConsistent(t *testing.T) {
	blocking, building, release := blockingFabric(t)
	matrix := func() *Sweep {
		s := smallSweep(300, 9)
		s.Configs = append([]config.System{blocking}, s.Configs...)
		return s
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 3
	job, err := NewClient(WithWorkers(2), WithCacheDir(dir)).Submit(ctx, matrix())
	if err != nil {
		t.Fatal(err)
	}
	<-building
	for received := 0; received < stopAfter; received++ {
		<-job.Results()
	}
	cancel()
	release()
	for range job.Results() {
	}
	err = job.Wait(context.Background())
	var cancelErr *CanceledError
	if !errors.As(err, &cancelErr) {
		t.Fatalf("interrupted sweep returned %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if cancelErr.Completed < stopAfter || cancelErr.Completed >= cancelErr.Total {
		t.Fatalf("CanceledError reports %d/%d completed, want in [%d, %d)",
			cancelErr.Completed, cancelErr.Total, stopAfter, cancelErr.Total)
	}

	// Resume on a new Client that shares only the cache: completed cells
	// come from cache, the rest simulate fresh, and the tables match an
	// uninterrupted run byte for byte.
	reference := matrix()
	mustSweep(t, NewClient(WithWorkers(1)), reference)
	resumed := matrix()
	if hits := cacheHits(mustSweep(t, NewClient(WithWorkers(2), WithCacheDir(dir)), resumed)); hits < stopAfter {
		t.Errorf("resumed sweep reused %d cached cells, want >= %d", hits, stopAfter)
	}
	if got, want := sweepTables(resumed), sweepTables(reference); got != want {
		t.Fatalf("cancelled-then-resumed tables differ from uninterrupted run:\n%s\n--- want ---\n%s", got, want)
	}
}

func TestJobCancelStopsStream(t *testing.T) {
	// A larger matrix so cancellation lands mid-sweep, not after the end.
	s := NewSweep(4000, 13)
	job, err := NewClient(WithWorkers(2)).Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	for range job.Results() {
		first++
		if first == 2 {
			job.Cancel()
		}
	}
	err = job.Wait(context.Background())
	var cancelErr *CanceledError
	if !errors.As(err, &cancelErr) {
		t.Fatalf("canceled job returned %v, want *CanceledError", err)
	}
	if done, total := job.Progress(); done >= total {
		t.Fatalf("job claims %d/%d cells after mid-sweep cancel", done, total)
	}
	if job.Err() == nil {
		t.Fatal("Err() nil after the job finished canceled")
	}
}

func TestJobWaitHonorsWaitContext(t *testing.T) {
	s := NewSweep(30000, 17) // big enough to still be running at the deadline
	job, err := NewClient(WithWorkers(2)).Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		job.Cancel()
		job.Wait(context.Background())
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := job.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait under an expired wait-ctx returned %v, want DeadlineExceeded", err)
	}
	if job.Err() != nil {
		t.Fatalf("abandoning a Wait must not fail the job: Err() = %v", job.Err())
	}
}

// TestClientConcurrentSubmissions drives several jobs through one shared
// client at once — the server's usage pattern — and checks each against a
// sequential reference. CI runs this under -race, which is the point.
func TestClientConcurrentSubmissions(t *testing.T) {
	client := NewClient(WithWorkers(2))
	const jobs = 4
	tables := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := smallSweep(300, uint64(100+i))
			job, err := client.Submit(context.Background(), s)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			cells := 0
			for range job.Results() {
				cells++
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if want := len(s.Configs) * len(s.Workloads); cells != want {
				t.Errorf("job %d streamed %d cells, want %d", i, cells, want)
			}
			tables[i] = sweepTables(s)
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		ref := smallSweep(300, uint64(100+i))
		mustSweep(t, NewClient(WithWorkers(1)), ref)
		if tables[i] != sweepTables(ref) {
			t.Errorf("concurrent job %d tables differ from its sequential reference", i)
		}
	}
}

// idleMachines snapshots c's parked machines per configuration.
func idleMachines(c *Client) map[string][]*System {
	c.machines.mu.Lock()
	defer c.machines.mu.Unlock()
	idle := make(map[string][]*System)
	for k, free := range c.machines.free {
		if len(free) > 0 {
			idle[k] = slices.Clone(free)
		}
	}
	return idle
}

// requireIdle fails unless exactly the configurations in want have parked
// machines on c.
func requireIdle(t *testing.T, c *Client, want ...config.System) {
	t.Helper()
	idle := idleMachines(c)
	for _, cfg := range want {
		if len(idle[machineKey(cfg)]) == 0 {
			t.Errorf("no idle %s machine", cfg.Name())
		}
	}
	if len(idle) != len(want) {
		t.Errorf("%d configurations have idle machines, want %d", len(idle), len(want))
	}
}

// TestClientReusesMachinesAcrossJobs pins the Client-lifetime machine pool:
// later jobs Reset the machines earlier ones left (even machines a
// cancellation abandoned mid-cell) and replay exactly as a fresh Client
// does, labels keep machines apart, and a run's start drops only the idle
// machines no running run uses.
func TestClientReusesMachinesAcrossJobs(t *testing.T) {
	fresh := smallSweep(300, 5)
	mustSweep(t, NewClient(WithWorkers(1)), fresh)
	requireFresh := func(t *testing.T, s *Sweep) {
		t.Helper()
		for w := range fresh.Results {
			for c, want := range fresh.Results[w] {
				if got := s.Results[w][c]; got != want {
					t.Errorf("cell %d/%d differs from a fresh Client:\n%+v\nvs\n%+v", w, c, got, want)
				}
			}
		}
	}

	t.Run("resubmit builds nothing", func(t *testing.T) {
		c := NewClient(WithWorkers(1))
		first := smallSweep(300, 5)
		mustSweep(t, c, first)
		left := idleMachines(c)
		second := smallSweep(300, 5)
		mustSweep(t, c, second)
		requireFresh(t, first)
		requireFresh(t, second)
		after := idleMachines(c)
		for _, cfg := range second.Configs {
			k := machineKey(cfg)
			if len(left[k]) != 1 || len(after[k]) != 1 || after[k][0] != left[k][0] {
				t.Errorf("%s: second job ran on machines %p, want the one the first job left (%p)",
					cfg.Name(), after[k], left[k])
			}
		}
	})

	t.Run("resubmit after cancel", func(t *testing.T) {
		c := NewClient(WithWorkers(1))
		canceled := smallSweep(20000, 3)
		job, err := c.Submit(context.Background(), canceled)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Results()
		job.Cancel()
		if err := job.Wait(context.Background()); !errors.As(err, new(*CanceledError)) {
			t.Fatalf("canceled job returned %v, want *CanceledError", err)
		}
		// Whether or not that cancel caught the next cell mid-replay, leave
		// one parked machine dirty for certain: stop a replay on it at a
		// fixed simulated time, as TestResetSystemMatchesFresh does.
		cfg := canceled.Configs[1]
		key := machineKey(cfg)
		sys, err := c.machines.get(key, cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec := canceled.Workloads[1]
		r, err := ReplayRunner(sys, spec.Name, MaterializeStream(spec, cfg.Clusters, 20000, 3))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sys.K.ScheduleEvent(4000, cancelEvent(cancel), 0)
		if _, err := r.Run(ctx); !errors.As(err, new(*CanceledError)) || sys.K.Pending() == 0 {
			t.Fatalf("dirty replay returned %v with %d events pending, want a mid-run cancel", err, sys.K.Pending())
		}
		c.machines.put(key, sys)

		s := smallSweep(300, 5)
		mustSweep(t, c, s)
		requireFresh(t, s)
	})

	t.Run("labels keep machines apart", func(t *testing.T) {
		a, b := config.Corona(), config.Corona()
		a.Label, b.Label = "corona-a", "corona-b"
		s := NewMatrixSweep([]config.System{a, b}, AllWorkloads()[:1], 300, 5)
		c := NewClient(WithWorkers(1))
		mustSweep(t, c, s)
		for col, cfg := range s.Configs {
			if got := s.Results[0][col].Config; got != cfg.Label {
				t.Errorf("column %d: Result.Config = %q, want %q", col, got, cfg.Label)
			}
		}
		requireIdle(t, c, a, b)
	})

	t.Run("retention", func(t *testing.T) {
		combos := config.Combos()
		a, b, cc := combos[0], combos[1], combos[2]
		one := AllWorkloads()[:1]
		c := NewClient(WithWorkers(1))
		mustSweep(t, c, NewMatrixSweep([]config.System{a, b}, one, 300, 1))
		requireIdle(t, c, a, b)
		mustSweep(t, c, NewMatrixSweep([]config.System{cc}, one, 300, 1))
		requireIdle(t, c, cc)

		// Hold an {A, B'} job between its two cells: with one worker, A's
		// cell has finished and parked its machine while B's cell is stuck
		// building on a blocking fabric. The running job keeps A through a
		// {C} job's start; once it ends, the next {C} job drops A.
		blocking, building, release := blockingFabric(t)
		held, err := c.Submit(context.Background(),
			NewMatrixSweep([]config.System{a, blocking}, one, 300, 1))
		if err != nil {
			t.Fatal(err)
		}
		<-held.Results()
		<-building
		mustSweep(t, c, NewMatrixSweep([]config.System{cc}, one, 300, 1))
		requireIdle(t, c, a, cc)
		release()
		if err := held.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		mustSweep(t, c, NewMatrixSweep([]config.System{cc}, one, 300, 1))
		requireIdle(t, c, cc)
	})
}

// TestParallelSweepPoolsOneMachinePerConfig: cells are claimed by
// configuration, so a Submit of the paper matrix runs each configuration's
// cells one at a time while other configurations have cells left, and its
// tables equal WithWorkers(1)'s. On 2 workers no configuration's cells
// outweigh the other four's, so the Client's pool ends with exactly one
// machine per configuration, unless the host starves one worker for
// several cells' time and its configuration falls behind until only its
// cells remain: the 2-worker sweep gets three attempts. On 4 workers a
// configuration whose cells take more than a quarter of the matrix's time
// (a mesh column can) still has cells left when the others run out, and
// the idle workers take them on extra machines rather than wait: the pool
// then holds at least one each.
func TestParallelSweepPoolsOneMachinePerConfig(t *testing.T) {
	const requests = 2000
	seq := NewSweep(requests, 42)
	mustSweep(t, NewClient(WithWorkers(1)), seq)
	// machines submits the matrix on a fresh Client of the given workers
	// and returns how many machines its pool holds per configuration.
	machines := func(workers int) []int {
		c := NewClient(WithWorkers(workers))
		s := NewSweep(requests, 42)
		mustSweep(t, c, s)
		if sweepTables(s) != sweepTables(seq) {
			t.Fatalf("WithWorkers(%d) tables differ from sequential", workers)
		}
		idle := idleMachines(c)
		if len(idle) != len(s.Configs) {
			t.Fatalf("WithWorkers(%d): %d configurations have machines, want %d", workers, len(idle), len(s.Configs))
		}
		counts := make([]int, len(s.Configs))
		for col, cfg := range s.Configs {
			if counts[col] = len(idle[machineKey(cfg)]); counts[col] == 0 {
				t.Fatalf("WithWorkers(%d): no %s machine in the pool", workers, cfg.Name())
			}
		}
		return counts
	}
	for attempt := 1; ; attempt++ {
		counts := machines(2)
		if slices.Max(counts) == 1 {
			break
		}
		if attempt == 3 {
			t.Fatalf("WithWorkers(2): machines per configuration %v in each of %d attempts, want one each", counts, attempt)
		}
		t.Logf("WithWorkers(2) attempt %d: machines per configuration %v", attempt, counts)
	}
	t.Logf("WithWorkers(4): machines per configuration %v", machines(4))
}
