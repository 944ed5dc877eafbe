package core

import (
	"context"
	"errors"
	"hash/fnv"
	"runtime"
	"sync"
)

// Pool executes independent jobs over a bounded set of workers that claim
// them one at a time. Every job belongs to a group, and a free worker takes
// the lowest-index unclaimed job whose group no other worker is running;
// jobs of one group therefore start in index order and, while other groups
// have jobs left, one at a time. Because every job in this package is an
// independent, self-seeded simulation placed by index, the schedule only
// affects wall-clock time and memory — never results.
type Pool struct {
	workers int
}

// NewPool returns a pool of n workers. n <= 0 selects GOMAXPROCS, the
// default for sweep runs; NewPool(1) degenerates to the sequential path,
// kept for debugging and as the determinism reference.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Run executes job(0) .. job(n-1) across the pool and returns when all have
// finished or ctx is done. Job i belongs to shard i mod W and a shard's
// jobs never overlap, so each shard runs k, k+W, k+2W, ... in order, one at
// a time: state a caller keeps per shard is never shared by two running
// jobs. Once ctx is canceled, workers stop claiming new jobs and the pool
// drains — already-running jobs finish (or observe the cancellation
// themselves) before Run returns, so no job is ever abandoned mid-flight on
// a live goroutine. A nil ctx means "never canceled". A panic in any job is
// captured and re-raised on the caller's goroutine once the workers drain.
func (p *Pool) Run(ctx context.Context, n int, job func(i int)) {
	w := min(p.workers, n)
	p.run(ctx, n, func(i int) int { return i % w }, false, job)
}

// run is the one claim loop. group(i) names job i's group, and a free
// worker takes the lowest-index unclaimed job whose group no other worker
// is running. When every remaining job's group is busy, spill lets the
// worker take the lowest unclaimed job anyway, so no worker idles while
// work remains; without spill the worker retires, as a shard with no jobs
// left would. With at least as many groups as workers, a spill happens
// only at the tail, once the other groups have run out of jobs.
func (p *Pool) run(ctx context.Context, n int, group func(i int) int, spill bool, job func(i int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &claims{taken: make([]bool, n), busy: make(map[int]int), group: group, spill: spill}
	work := func() {
		for ctx.Err() == nil {
			i, ok := c.claim()
			if !ok {
				return
			}
			job(i)
			c.release(i)
		}
	}
	w := min(p.workers, n)
	if w <= 1 {
		work()
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			work()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// claims is a pool run's shared claim state. A job that panics never
// releases its group, so its worker's group stays busy for the rest of the
// run.
type claims struct {
	mu    sync.Mutex
	taken []bool      // claimed jobs
	lo    int         // every job below lo is claimed
	busy  map[int]int // running jobs per group
	group func(i int) int
	spill bool
}

// claim marks and returns the next job for a free worker, or false when
// none is left for it.
func (c *claims) claim() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lo < len(c.taken) && c.taken[c.lo] {
		c.lo++
	}
	pick := -1
	for i := c.lo; i < len(c.taken); i++ {
		if !c.taken[i] && c.busy[c.group(i)] == 0 {
			pick = i
			break
		}
	}
	if pick < 0 {
		if !c.spill || c.lo == len(c.taken) {
			return 0, false
		}
		pick = c.lo
	}
	c.taken[pick] = true
	c.busy[c.group(pick)]++
	return pick, true
}

// release ends job i's claim on its group.
func (c *claims) release(i int) {
	c.mu.Lock()
	c.busy[c.group(i)]--
	c.mu.Unlock()
}

// CellSeed derives the RNG seed for a sweep cell from the sweep's base seed
// and the cell's workload: base ^ FNV-1a(workload name). Deriving seeds up
// front — rather than threading one RNG through the matrix — is what makes
// sweep results independent of worker count and completion order; deriving
// from the workload alone (never the configuration) keeps every machine in
// a figure row facing the identical offered traffic stream, which the
// paper's speedup comparisons require. See docs/DETERMINISM.md. The zero
// seed is remapped because the underlying xorshift generator has an
// all-zeros fixed point.
func CellSeed(base uint64, workloadName string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workloadName))
	s := base ^ h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return s
}

// isCanceled reports whether err is a context cancellation or deadline,
// directly or wrapped (CanceledError unwraps to the context error).
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
