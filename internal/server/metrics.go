package server

// GET /metrics: a hand-rolled Prometheus text-format (version 0.0.4) export
// of the daemon's operational surface — no client library, because the
// whole format is "# HELP / # TYPE / name{labels} value" lines and a
// dependency would outweigh it. Everything /healthz reports is here in
// scrapeable form, plus throughput (a cells-completed counter; the scraper
// computes its rate()) and, on a coordinator, the fleet dispatch and retry
// counters.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricsView is the point-in-time state a scrape renders: counts by job
// status plus the queue and store signals /healthz also reports.
type metricsView struct {
	byStatus map[string]int
	queued   int
	capacity int
	storeOK  float64 // 1 healthy, 0 wedged; absent when no store
	hasStore bool
}

func (s *Server) metricsSnapshot() metricsView {
	v := metricsView{byStatus: make(map[string]int), capacity: s.depth}
	s.mu.Lock()
	v.queued = len(s.queue)
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		v.byStatus[j.status]++
		j.mu.Unlock()
	}
	if s.st != nil {
		v.hasStore = true
		if s.st.Err() == nil {
			v.storeOK = 1
		}
	}
	return v
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	cells := s.cellsDone.Load()
	v := s.metricsSnapshot()

	var b strings.Builder
	gauge := func(name, help string, value float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		fmt.Fprintf(&b, "%s %g\n", name, value)
	}
	counter := func(name, help string, value float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(&b, "%s %g\n", name, value)
	}

	fmt.Fprintf(&b, "# HELP corona_jobs Jobs in the registry by lifecycle status.\n# TYPE corona_jobs gauge\n")
	for _, st := range []string{statusQueued, statusResuming, statusRunning,
		statusDone, statusFailed, statusCanceled, statusTimedOut} {
		fmt.Fprintf(&b, "corona_jobs{status=%q} %d\n", st, v.byStatus[st])
	}
	gauge("corona_queue_depth", "Jobs waiting in the admission queue.", float64(v.queued))
	gauge("corona_queue_capacity", "Admission queue bound; depth at capacity means 503s.", float64(v.capacity))
	counter("corona_cells_completed_total", "Sweep cells completed (or restored from the journal) since start.", float64(cells))
	if v.hasStore {
		gauge("corona_store_healthy", "1 while the journal store accepts appends, 0 once wedged.", v.storeOK)
	}
	gauge("corona_uptime_seconds", "Seconds since the daemon started.", now.Sub(s.started).Seconds())

	if len(s.workers) > 0 {
		gauge("corona_fleet_workers", "Worker daemons this coordinator leases cells to.", float64(len(s.workers)))
		dispatched, retries, specs := s.fleet.snapshot()
		// Sorted worker order keeps scrapes byte-stable across restarts.
		byName := make(map[string]WorkerHealth, len(s.workers))
		names := make([]string, 0, len(s.workers))
		for _, wk := range s.workers {
			byName[wk.name] = wk.snapshot()
			names = append(names, wk.name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "# HELP corona_fleet_shards_dispatched_total Lease sub-jobs dispatched (first, retried and speculative), by worker.\n# TYPE corona_fleet_shards_dispatched_total counter\n")
		for _, wk := range names {
			fmt.Fprintf(&b, "corona_fleet_shards_dispatched_total{worker=%q} %d\n", wk, dispatched[wk])
		}
		fmt.Fprintf(&b, "# HELP corona_fleet_worker_healthy 1 while the worker is healthy or recovered, 0 when suspect or dead.\n# TYPE corona_fleet_worker_healthy gauge\n")
		for _, wk := range names {
			up := 0
			if st := byName[wk].State; st == workerHealthy || st == workerRecovered {
				up = 1
			}
			fmt.Fprintf(&b, "corona_fleet_worker_healthy{worker=%q} %d\n", wk, up)
		}
		fmt.Fprintf(&b, "# HELP corona_fleet_breaker_open 1 while the worker is out of dispatch (dead), 0 otherwise.\n# TYPE corona_fleet_breaker_open gauge\n")
		for _, wk := range names {
			open := 0
			if byName[wk].Breaker != "closed" {
				open = 1
			}
			fmt.Fprintf(&b, "corona_fleet_breaker_open{worker=%q} %d\n", wk, open)
		}
		counter("corona_fleet_shard_retries_total", "Leases of cells already dispatched once (worker failures ridden out).", float64(retries))
		counter("corona_fleet_speculations_total", "Straggler speculations: an idle worker copying a slow lease's undelivered cells.", float64(specs))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
