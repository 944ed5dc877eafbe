package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"corona/internal/config"
	"corona/internal/faultinject"
	"corona/internal/noc"
	"corona/internal/splash"
	"corona/internal/stats"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// Sweep runs every workload on every configuration. NewSweep prepares the
// paper's 5x15 matrix behind Figures 8-11; NewMatrixSweep accepts any
// configs x workloads matrix — six machines, one machine at twenty
// parameter points, or anything a JSON scenario (LoadScenario) describes —
// with the same engine, determinism guarantee, and on-disk cache.
type Sweep struct {
	Configs   []config.System
	Workloads []traffic.Spec
	// Requests per run (the paper's Table 3 counts are scaled down by the
	// caller for tractable wall-clock time; shapes are stable well below the
	// paper's 10^6).
	Requests int
	Seed     uint64

	// Results[w][c] is the run of Workloads[w] on Configs[c].
	Results [][]Result
}

// AllWorkloads returns the paper's 15 workloads: 4 synthetics then 11
// SPLASH-2 models, in figure order.
func AllWorkloads() []traffic.Spec {
	specs := traffic.Synthetic()
	specs = append(specs, splash.Specs()...)
	return specs
}

// NewSweep prepares the paper's full 5-configuration x 15-workload matrix.
func NewSweep(requests int, seed uint64) *Sweep {
	return NewMatrixSweep(config.Combos(), AllWorkloads(), requests, seed)
}

// NewMatrixSweep prepares an arbitrary configs x workloads matrix. The
// first configuration whose Name is "LMesh/ECM" is the speedup baseline;
// when absent, the first configuration is (so order configs baseline-first
// for custom matrices).
func NewMatrixSweep(configs []config.System, workloads []traffic.Spec, requests int, seed uint64) *Sweep {
	return &Sweep{
		Configs:   configs,
		Workloads: workloads,
		Requests:  requests,
		Seed:      seed,
	}
}

// CellResult is one completed sweep cell as delivered to a streaming
// consumer (Job.Results, the server's NDJSON endpoint): the cell's position
// in the matrix, whether it came from the cache, and the full Result. Cells
// arrive in completion order, not matrix order — Index places them.
type CellResult struct {
	// Index is the cell's linear position, Row*len(Configs)+Col.
	Index int `json:"index"`
	// Row and Col index Sweep.Workloads and Sweep.Configs respectively.
	Row int `json:"row"`
	Col int `json:"col"`

	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Cached marks a cell satisfied from the on-disk cache, not simulated.
	Cached bool   `json:"cached"`
	Result Result `json:"result"`
}

// Option configures one Client.Submit call.
type Option func(*submitConfig)

// submitConfig collects a Submit call's options.
type submitConfig struct {
	subset []int
}

// Subset restricts the run to the given linear cell indices
// (Row*len(Configs)+Col): only those cells simulate, fill Results, and
// surface through Job.Results. It has two callers: a fleet worker
// executing the slice of a campaign's matrix a coordinator handed it, and
// corona-serve resuming a crashed campaign by running only the cells its
// journal had not recorded. Because every cell is independent and
// self-seeded (CellSeed), a subset cell's Result is byte-identical to the
// same cell of a full run, at any worker count — which is what lets shards
// and resumed remainders merge back into a single-node-identical stream.
// Indices out of range, duplicated, or an explicitly empty set are rejected
// with a *ConfigError before anything simulates. A nil subset (the default)
// runs the whole matrix.
func Subset(indices []int) Option {
	return func(sc *submitConfig) { sc.subset = indices }
}

// rowStreams coordinates one sweep row's shared traffic: the workload's
// miss stream is materialized once (lazily, by the first cell of the row
// that actually simulates) and replayed read-only by every configuration in
// the row — the paper's own methodology, which replays one captured miss
// stream against many interconnects, and the reason CellSeed derives seeds
// from the workload alone. Rows whose configurations disagree on cluster
// count (possible in custom scenarios) materialize one stream per distinct
// count, since the streams genuinely differ. The buffer is dropped once the
// last cell of the row has finished, bounding a sweep's resident streams to
// roughly the rows its workers currently occupy.
type rowStreams struct {
	mu         sync.Mutex
	byClusters map[int][][]trace.Record
	remaining  int
}

// acquire returns the row's materialized stream for a machine of `clusters`
// endpoints, generating it on first use. Concurrent cells of the row block
// here rather than duplicate the generation work.
func (r *rowStreams) acquire(spec traffic.Spec, clusters, requests int, seed uint64) [][]trace.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byClusters[clusters]; ok {
		return s
	}
	if r.byClusters == nil {
		r.byClusters = make(map[int][][]trace.Record)
	}
	s := MaterializeStream(spec, clusters, requests, seed)
	r.byClusters[clusters] = s
	return s
}

// release records one finished cell; the last one frees the row's streams.
func (r *rowStreams) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.remaining--; r.remaining == 0 {
		r.byClusters = nil
	}
}

// systemPool recycles built machines across cells, one free list per
// configuration. A list's key is the configuration's canonical JSON
// (machineKey), Label included because a Result names its machine by
// sys.Cfg.Name(), so two columns share machines exactly when they describe
// the same machine. get pops one and Resets it to construction state
// (falling back to a fresh build if the fabric cannot reset in place); put
// parks only systems whose fabric supports reset. Pooling kills the
// per-cell construction garbage that previously dominated sweep allocation.
//
// A Client owns one pool for its lifetime, so a job Resets the machines an
// earlier job of the same Client left behind instead of building its own.
// Retention needs no knob: begin, as a run starts, drops the idle machines
// of every configuration that neither that run nor any still-running one
// uses. Resubmitting a matrix therefore rebuilds nothing, idle memory stays
// proportional to the configurations in use, and concurrent jobs over
// different configurations never make each other rebuild.
type systemPool struct {
	mu      sync.Mutex
	free    map[string][]*System
	running map[string]int // columns of in-flight runs, per key
}

func newSystemPool() *systemPool {
	return &systemPool{free: make(map[string][]*System), running: make(map[string]int)}
}

// machineKey is cfg's pool key: its canonical JSON. Every configuration
// reaching the pool has passed System.Validate, which rejects the
// non-finite memory rates JSON cannot encode.
func machineKey(cfg config.System) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("core: validated configuration %s does not encode: %v", cfg.Name(), err))
	}
	return string(b)
}

// begin registers a run over cfgs, drops idle machines no registered run
// uses, and returns each column's key for get and put.
func (p *systemPool) begin(cfgs []config.System) []string {
	keys := make([]string, len(cfgs))
	for c, cfg := range cfgs {
		keys[c] = machineKey(cfg)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		p.running[k]++
	}
	for k := range p.free {
		if p.running[k] == 0 {
			delete(p.free, k)
		}
	}
	return keys
}

// end unregisters a run begun with keys. Its machines stay parked until a
// later begin finds their configuration unused.
func (p *systemPool) end(keys []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		if p.running[k]--; p.running[k] == 0 {
			delete(p.running, k)
		}
	}
}

func (p *systemPool) get(key string, cfg config.System) (*System, error) {
	p.mu.Lock()
	var sys *System
	if free := p.free[key]; len(free) > 0 {
		sys = free[len(free)-1]
		free[len(free)-1] = nil
		p.free[key] = free[:len(free)-1]
	}
	p.mu.Unlock()
	if sys != nil && sys.Reset() == nil {
		return sys, nil
	}
	return NewSystem(cfg)
}

func (p *systemPool) put(key string, sys *System) {
	if _, ok := sys.Net.(noc.Resetter); !ok {
		return
	}
	p.mu.Lock()
	p.free[key] = append(p.free[key], sys)
	p.mu.Unlock()
}

// runCellSafe wraps runCell in a panic barrier and the chaos suite's cell
// fault point. A panic anywhere in the cell's simulation — a model bug or an
// injected fault — becomes a *PanicError that fails this sweep only: the
// worker pool, the process, and (behind corona-serve) every other job keep
// running.
func (s *Sweep) runCellSafe(ctx context.Context, cfg config.System, spec traffic.Spec, row *rowStreams, seed uint64, pool *systemPool, key string) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire("core.cell.run"); err != nil {
		return Result{}, err
	}
	return s.runCell(ctx, cfg, spec, row, seed, pool, key)
}

// runCell simulates one sweep cell by replaying the row's shared stream on a
// pooled (or freshly built) machine. The machine goes back to the pool when
// the replay returns, finished or canceled — Reset restores either — but
// not when it panics: a machine abandoned mid-event is dropped, since the
// Client's pool outlives this run.
func (s *Sweep) runCell(ctx context.Context, cfg config.System, spec traffic.Spec, row *rowStreams, seed uint64, pool *systemPool, key string) (Result, error) {
	sys, err := pool.get(key, cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := ReplayRunner(sys, spec.Name, row.acquire(spec, sys.Cfg.Clusters, s.Requests, seed))
	if err != nil {
		return Result{}, err
	}
	res, err := r.Run(ctx)
	pool.put(key, sys)
	return res, err
}

// run is the one cell engine behind Client.Submit and Client.Compare. It
// executes the validated matrix — or, for a non-nil order, only the sorted
// cell indices listed there — on c's workers and machine pool, loading and
// storing cells through cache (nil for none). rowSeed gives a row its seed
// from its workload name: CellSeed for a submitted sweep, the raw seed for
// Compare. onCell, when non-nil, receives each completed cell with the
// count of cells finished so far, one call at a time.
//
// Every cell is self-seeded, so the filled Results grid is identical for
// every worker count and completion order; see docs/DETERMINISM.md. Cells
// in a row replay one shared, materialized traffic stream (rowStreams)
// instead of regenerating the workload per configuration. When ctx is
// canceled, in-flight cells stop at their next kernel checkpoint, the
// workers drain, and run returns a *CanceledError recording how many cells
// completed; finished cells keep their Results entries and their
// (atomically written) cache entries. Any other cell failure cancels the
// remaining cells and is returned as-is.
func (s *Sweep) run(ctx context.Context, c *Client, cache *resultCache, rowSeed func(workload string) uint64, order []int, onCell func(cell CellResult, done int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	nc := len(s.Configs)
	s.Results = make([][]Result, len(s.Workloads))
	for w := range s.Workloads {
		s.Results[w] = make([]Result, nc)
	}

	keys := c.machines.begin(s.Configs)
	defer c.machines.end(keys)
	rows := make([]*rowStreams, len(s.Workloads))
	for w := range rows {
		rows[w] = &rowStreams{remaining: nc}
	}
	n := nc * len(s.Workloads)
	if order != nil {
		// A subset run touches only its own cells: rows release their shared
		// stream once the subset's cells of that row finish, and rows with no
		// subset cells never materialize at all.
		n = len(order)
		for w := range rows {
			rows[w].remaining = 0
		}
		for _, i := range order {
			rows[i/nc].remaining++
		}
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex // serializes the consumer and its counter
		done     int
		firstErr error
	)
	cell := func(k int) int {
		if order != nil {
			return order[k]
		}
		return k
	}
	// Cells are grouped by column, so a configuration runs one cell at a
	// time while there are other configurations' cells to run, and the
	// sweep builds and pools one machine per configuration.
	NewPool(c.workers).run(runCtx, n, func(k int) int { return cell(k) % nc }, true, func(k int) {
		i := cell(k)
		w, col := i/nc, i%nc
		defer rows[w].release()
		cfg, spec := s.Configs[col], s.Workloads[w]
		seed := rowSeed(spec.Name)
		res, cached := cache.load(cfg, spec, s.Requests, seed)
		if !cached {
			var err error
			res, err = s.runCellSafe(runCtx, cfg, spec, rows[w], seed, c.machines, keys[col])
			if err != nil {
				mu.Lock()
				// Cancellations are either the outer ctx (reported below) or
				// fallout from an earlier failure — never the root cause.
				if firstErr == nil && !isCanceled(err) {
					firstErr = err
				}
				mu.Unlock()
				cancel()
				return
			}
			cache.store(cfg, spec, s.Requests, seed, res)
		}
		s.Results[w][col] = res
		mu.Lock()
		done++
		if onCell != nil {
			// res.Config is cfg.Name(), already built: a simulated cell's
			// machine names itself, and a cached entry's fingerprint covers
			// the whole configuration, Label included.
			onCell(CellResult{Index: i, Row: w, Col: col,
				Workload: spec.Name, Config: res.Config, Cached: cached, Result: res}, done)
		}
		mu.Unlock()
	})
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return &CanceledError{Completed: done, Total: n, Err: err}
	}
	return nil
}

// SubsetOrder validates and canonicalizes a cell subset against the matrix
// size: a sorted copy of the indices for a subset run, nil for a full one.
// Out-of-range or duplicate indices — and an explicitly empty subset — are
// caller mistakes, rejected as *ConfigError before any cell simulates. It
// is the one rule set behind the Subset option and the daemon's "cells"
// selector.
func SubsetOrder(subset []int, total int) ([]int, error) {
	if subset == nil {
		return nil, nil
	}
	if len(subset) == 0 {
		return nil, &ConfigError{Name: "subset", Err: fmt.Errorf("core: cell subset selects no cells")}
	}
	order := make([]int, len(subset))
	copy(order, subset)
	sort.Ints(order)
	for k, i := range order {
		if i < 0 || i >= total {
			return nil, &ConfigError{Name: "subset", Err: fmt.Errorf("core: cell index %d outside the %d-cell matrix", i, total)}
		}
		if k > 0 && order[k-1] == i {
			return nil, &ConfigError{Name: "subset", Err: fmt.Errorf("core: cell index %d duplicated", i)}
		}
	}
	return order, nil
}

// validate pre-flights the matrix: every configuration must resolve against
// the registry and the request count must be positive. It is the single
// rule set behind Client.Submit's synchronous rejection and Client.Compare's.
func (s *Sweep) validate() error {
	for _, cfg := range s.Configs {
		if err := cfg.Validate(); err != nil {
			return &ConfigError{Name: cfg.Name(), Err: err}
		}
	}
	return checkRequests(s.Requests)
}

// checkRequests rejects a non-positive request count per cell, for
// Sweep.validate and core.Run alike.
func checkRequests(n int) error {
	if n <= 0 {
		return &ConfigError{Name: "requests", Err: fmt.Errorf("core: requests per cell must be positive, got %d", n)}
	}
	return nil
}

// BaselineName returns the display name of the speedup-1 reference column.
func (s *Sweep) BaselineName() string { return s.Configs[s.baselineIndex()].Name() }

// baselineIndex locates LMesh/ECM, the speedup-1 reference, falling back
// to the first configuration for matrices without the paper's baseline.
func (s *Sweep) baselineIndex() int {
	for i, c := range s.Configs {
		if c.Name() == "LMesh/ECM" {
			return i
		}
	}
	return 0
}

func (s *Sweep) header() []string {
	h := []string{"Benchmark"}
	for _, c := range s.Configs {
		h = append(h, c.Name())
	}
	return h
}

func (s *Sweep) table(cell func(Result, Result) string) *stats.Table {
	t := stats.NewTable(s.header()...)
	base := s.baselineIndex()
	for w := range s.Workloads {
		row := []string{s.Workloads[w].Name}
		for c := range s.Configs {
			row = append(row, cell(s.Results[w][c], s.Results[w][base]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure8 renders normalized speedup over LMesh/ECM.
func (s *Sweep) Figure8() *stats.Table {
	return s.table(func(r, base Result) string {
		return fmt.Sprintf("%.2f", r.Speedup(base))
	})
}

// Figure9 renders achieved memory bandwidth in TB/s.
func (s *Sweep) Figure9() *stats.Table {
	return s.table(func(r, _ Result) string {
		return fmt.Sprintf("%.2f", r.AchievedTBs)
	})
}

// Figure10 renders average L2 miss latency in ns.
func (s *Sweep) Figure10() *stats.Table {
	return s.table(func(r, _ Result) string {
		return fmt.Sprintf("%.0f", r.MeanLatencyNs)
	})
}

// Figure11 renders on-chip network power in watts.
func (s *Sweep) Figure11() *stats.Table {
	return s.table(func(r, _ Result) string {
		return fmt.Sprintf("%.1f", r.NetworkPowerW)
	})
}

// Speedups returns the per-workload speedups of configuration c over the
// baseline, in workload order.
func (s *Sweep) Speedups(c int) []float64 {
	base := s.baselineIndex()
	out := make([]float64, len(s.Workloads))
	for w := range s.Workloads {
		out[w] = s.Results[w][c].Speedup(s.Results[w][base])
	}
	return out
}

// configIndex finds a configuration by name, or -1.
func (s *Sweep) configIndex(name string) int {
	for i, c := range s.Configs {
		if c.Name() == name {
			return i
		}
	}
	return -1
}

// GeoMeanSummary computes the paper's two headline geometric means over a
// workload index range [lo, hi): the OCM-over-ECM gain on an HMesh, and the
// further crossbar-over-HMesh gain on OCM. The paper reports 3.28 and 2.36
// for the synthetics ([0,4)) and 1.80 and 1.44 for SPLASH-2 ([4,15)).
func (s *Sweep) GeoMeanSummary(lo, hi int) (ocmOverEcm, xbarOverHMesh float64) {
	he := s.configIndex("HMesh/ECM")
	ho := s.configIndex("HMesh/OCM")
	xo := s.configIndex("XBar/OCM")
	if he < 0 || ho < 0 || xo < 0 {
		return 0, 0
	}
	var a, b []float64
	for w := lo; w < hi && w < len(s.Workloads); w++ {
		a = append(a, s.Results[w][ho].Speedup(s.Results[w][he]))
		b = append(b, s.Results[w][xo].Speedup(s.Results[w][ho]))
	}
	return stats.GeoMean(a), stats.GeoMean(b)
}
