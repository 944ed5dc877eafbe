package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"corona/internal/config"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// Client is the job-oriented entry point to the experiment engine, and the
// only way to run a sweep: every call takes a context, returns (result,
// error) instead of panicking, and sweeps are submitted as streaming Jobs
// whose cells arrive as shards finish. A Client carries the execution
// settings — worker pool size and cache directory — so a server (or any
// concurrent caller) configures them once and submits from many
// goroutines; the zero-value-equivalent NewClient() uses GOMAXPROCS workers
// and no cache. A Client's settings are fixed at construction; besides them
// it owns an internally synchronized pool of built machines, so its sweeps
// (Submit, Compare) Reset machines an earlier sweep left behind instead of
// building new ones. Clients are safe for concurrent use. See docs/API.md
// for the model.
type Client struct {
	workers  int
	cacheDir string
	machines *systemPool
}

// ClientOption configures a NewClient call.
type ClientOption func(*Client)

// WithWorkers sets the worker pool size for the client's sweeps: 0 (the
// default) means GOMAXPROCS, 1 forces the sequential path. Results are
// identical either way (docs/DETERMINISM.md).
func WithWorkers(n int) ClientOption { return func(c *Client) { c.workers = n } }

// WithCacheDir sets the client's on-disk result cache for submitted sweeps:
// cells whose (config, workload, requests, seed) key already has a valid
// entry are loaded instead of simulated, so re-runs only pay for
// invalidated cells. Empty (the default) disables caching.
func WithCacheDir(dir string) ClientOption { return func(c *Client) { c.cacheDir = dir } }

// NewClient returns a Client with the given settings.
func NewClient(opts ...ClientOption) *Client {
	c := &Client{machines: newSystemPool()}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Run simulates `requests` L2 misses of spec on cfg at the given seed —
// the context-aware, error-returning form of the one-cell experiment.
// Invalid configurations return a *ConfigError; a canceled ctx returns a
// *CanceledError.
func (c *Client) Run(ctx context.Context, cfg config.System, spec traffic.Spec, requests int, seed uint64) (Result, error) {
	return Run(ctx, cfg, spec, requests, seed)
}

// Replay replays recorded L2 misses on cfg, mapping trace thread ids onto
// clusters threadsPerCluster at a time (16 for a full 1024-thread Corona).
func (c *Client) Replay(ctx context.Context, cfg config.System, recs []trace.Record, threadsPerCluster int) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := NewTraceRunner(sys, recs, threadsPerCluster)
	if err != nil {
		return Result{}, err
	}
	return r.Run(ctx)
}

// Compare runs spec on several machines concurrently under identical
// traffic and returns results in argument order. It is a one-row sweep at
// the raw seed (not CellSeed), uncached: every machine replays the same
// materialized stream, so each result equals Run at that seed. With no
// explicit configs it compares the paper's five machines in Combos order.
func (c *Client) Compare(ctx context.Context, spec traffic.Spec, requests int, seed uint64, configs ...config.System) ([]Result, error) {
	if len(configs) == 0 {
		configs = config.Combos()
	}
	s := NewMatrixSweep(configs, []traffic.Spec{spec}, requests, seed)
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := s.run(ctx, c, nil, func(string) uint64 { return seed }, nil, nil); err != nil {
		return nil, err
	}
	return s.Results[0], nil
}

// Submit starts s running asynchronously on the client's workers, cache and
// machines, and returns a Job handle immediately. Each row runs at the seed
// CellSeed derives from its workload, so the Results grid is identical for
// every worker count. Configuration problems — an unregistered fabric,
// rejected parameters, a non-positive request count, a bad Subset — are
// reported synchronously as a *ConfigError, so a rejected submission never
// occupies workers. The sweep belongs to the job until it finishes: read s
// (or Job.Sweep()) only after Wait returns or Results is closed. A canceled
// job keeps its finished cells' cache entries, so resubmitting the sweep
// with the same cache directory completes it with byte-identical tables.
func (c *Client) Submit(ctx context.Context, s *Sweep, opts ...Option) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return nil, &ConfigError{Name: "sweep", Err: fmt.Errorf("core: Submit of a nil sweep")}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	var sc submitConfig
	for _, opt := range opts {
		opt(&sc)
	}
	total := len(s.Configs) * len(s.Workloads)
	order, err := SubsetOrder(sc.subset, total)
	if err != nil {
		return nil, err
	}
	if order != nil {
		total = len(order)
	}

	jobCtx, cancel := context.WithCancel(ctx)
	j := &Job{
		sweep: s,
		total: total,
		// Buffered to the cells the job runs: the engine's serialized sends
		// can never block, so a slow (or absent) consumer cannot stall the
		// worker pool, and a late consumer still sees every cell.
		results: make(chan CellResult, total),
		done:    make(chan struct{}),
		cancel:  cancel,
	}
	go func() {
		defer cancel()
		j.err = s.run(jobCtx, c, openCache(c.cacheDir),
			func(workload string) uint64 { return CellSeed(s.Seed, workload) },
			order, func(cell CellResult, done int) {
				j.completed.Store(int64(done))
				j.results <- cell
			})
		close(j.results)
		close(j.done)
	}()
	return j, nil
}

// Job is a submitted, asynchronously running sweep. Consume cells as they
// complete from Results, or block on Wait for the barrier semantics; Cancel
// stops the job early. A Job's methods are safe for concurrent use.
type Job struct {
	sweep     *Sweep
	total     int
	results   chan CellResult
	done      chan struct{}
	cancel    context.CancelFunc
	completed atomic.Int64

	// err is written by the runner goroutine before done closes; readers go
	// through Err/Wait, which synchronize on the close.
	err error
}

// Results streams completed cells in completion order, each exactly once:
// the engine sends them one at a time, and Progress already counts a cell
// by the time it can be received, so a consumer can render "Done/Total"
// without its own locking at any worker count. The channel is
// closed once the job finishes (normally, by error, or by cancellation);
// after it closes, Err reports how the job ended. The channel is buffered
// to every cell the job runs, so consuming late — or not at all — never
// blocks the simulation.
func (j *Job) Results() <-chan CellResult { return j.results }

// Done is closed when the job finishes; select on it alongside other work.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its terminal error: nil on
// success, a *CanceledError if the job's context was canceled, or the first
// cell failure. The ctx here only bounds the wait itself — cancelling it
// abandons the wait (returning ctx.Err()) without cancelling the job.
func (j *Job) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel asks the job to stop: in-flight cells halt at their next kernel
// checkpoint, completed cells keep their results and cache entries, and
// Wait returns a *CanceledError. Cancel is idempotent and safe after the
// job has finished.
func (j *Job) Cancel() { j.cancel() }

// Err returns the job's terminal error once it has finished, or nil while
// it is still running (use Wait to block for it).
func (j *Job) Err() error {
	select {
	case <-j.done:
		return j.err
	default:
		return nil
	}
}

// Progress reports cells completed so far and the cells the job runs: the
// matrix, or the Subset size.
func (j *Job) Progress() (done, total int) {
	return int(j.completed.Load()), j.total
}

// Sweep returns the underlying sweep — its Results grid and figure tables
// are valid once the job has finished (Wait returned nil).
func (j *Job) Sweep() *Sweep { return j.sweep }
