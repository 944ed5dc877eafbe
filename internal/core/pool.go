package core

import (
	"context"
	"errors"
	"hash/fnv"
	"runtime"
	"sync"
)

// Pool executes independent jobs over a bounded set of workers with
// deterministic static sharding: job i is always claimed by shard i mod W.
// Because every job in this package is an independent, self-seeded
// simulation, the assignment only affects wall-clock time — never results —
// but keeping it static makes scheduling reproducible too (a given shard
// always executes the same cells in the same order, which is useful when
// profiling or bisecting a single worker's workload).
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
// finished or ctx is done. Shard k runs jobs k, k+W, k+2W, ... in increasing
// order; once ctx is canceled, shards stop claiming new jobs and the pool
// drains — already-running jobs finish (or observe the cancellation
// themselves) before Run returns, so no job is ever abandoned mid-flight on
// a live goroutine. A nil ctx means "never canceled". A panic in any job is
// captured and re-raised on the caller's goroutine once the workers drain.
func (p *Pool) Run(ctx context.Context, n int, job func(i int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			job(i)
		}
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for i := k; i < n; i += w {
				if ctx.Err() != nil {
					return
				}
				job(i)
			}
		}(k)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
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
