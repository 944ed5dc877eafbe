// Command corona-serve is the Corona experiment daemon: an HTTP/JSON
// front-end over the context-aware Client/Job engine, so the scenario space
// opened by the fabric registry can be driven remotely — submitted,
// watched, streamed, and canceled — instead of one blocking CLI run at a
// time.
//
// Usage:
//
//	corona-serve [-addr HOST:PORT] [-workers W] [-cache DIR]
//	             [-queue N] [-runners R] [-drain DUR]
//	             [-store DIR] [-log text|json]
//	             [-mode worker|coordinator] [-peers URL,URL,...]
//	             [-heartbeat DUR] [-dead-after N] [-speculation-after DUR]
//
// API (see docs/API.md for a curl walkthrough):
//
//	POST   /v1/jobs              submit a scenario JSON (the corona-sweep
//	                             -config schema, plus optional "timeout"
//	                             and "cells" fields); returns the job id
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         status and progress
//	GET    /v1/jobs/{id}/results NDJSON stream of cells as they complete
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/fabrics           registered interconnect catalog
//	GET    /healthz              liveness, queue depth, store state
//	GET    /metrics              Prometheus text-format operational metrics
//
// -mode coordinator turns the daemon into a fleet coordinator: it executes
// nothing locally. Each campaign's cells go into one cell queue, and one
// dispatch loop per -peers worker daemon (same binary, default mode) leases
// batches of them as sub-jobs — first one contiguous shard per worker —
// whose streams merge into one index-ordered result stream byte-identical
// to a single-node run. A failed lease's undelivered cells go back to the
// queue for the other workers. A coordinator also self-heals: it heartbeats
// every worker's /healthz on the -heartbeat cadence, and a worker that
// misses -dead-after beats in a row (failed heartbeats and transport/5xx
// dispatch failures alike) is out of dispatch until a live heartbeat;
// idle loops speculatively copy leases that straggle past
// -speculation-after; and campaigns are shed with 503 + a drain-rate
// Retry-After when every live worker's queue is full — see
// docs/OPERATIONS.md "Fleet self-healing".
// Every flag also reads a CORONA_* environment variable (flag wins) so
// containerized fleets configure via env — see docker-compose.yml.
//
// Jobs wait in a bounded queue (-queue; full queue = 503 with a Retry-After
// hint) and run -runners at a time, each fanning its cells over a -workers
// pool; -cache shares one on-disk result cache across all jobs, so
// resubmitted or overlapping scenarios only simulate cells they have not
// seen. With -store, every submission, completed cell, and terminal status
// is journaled to the directory, and a restarted daemon resumes interrupted
// jobs from exactly the cells it had durably recorded (see
// docs/OPERATIONS.md). SIGINT/SIGTERM trigger a graceful shutdown: stop
// accepting, cancel running jobs (completed cells stay cached and
// journaled), drain for up to -drain, exit 0 — journaled jobs interrupted
// this way resume on the next start.
//
// The CORONA_FAULTS environment variable arms the fault-injection points
// (internal/faultinject spec syntax) for chaos drills against a live
// daemon; leave it unset in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
	"corona/internal/server"
	"corona/internal/store"
)

func main() { os.Exit(run()) }

// envStr/envInt read a CORONA_* default for a flag, so container fleets
// (docker-compose.yml) configure daemons by environment; an explicit flag
// still wins because the env only supplies the default.
func envStr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
		fmt.Fprintf(os.Stderr, "corona-serve: ignoring %s=%q: not an integer\n", key, v)
	}
	return def
}

func envDur(key string, def time.Duration) time.Duration {
	if v := os.Getenv(key); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
		fmt.Fprintf(os.Stderr, "corona-serve: ignoring %s=%q: not a duration\n", key, v)
	}
	return def
}

func run() int {
	addr := flag.String("addr", envStr("CORONA_ADDR", "127.0.0.1:8451"), "listen address")
	workers := flag.Int("workers", envInt("CORONA_WORKERS", 0), "per-job worker pool size; 0 = GOMAXPROCS, 1 = sequential")
	cacheDir := flag.String("cache", envStr("CORONA_CACHE", ""), "shared on-disk result cache directory (empty disables)")
	queue := flag.Int("queue", envInt("CORONA_QUEUE", 16), "bounded job queue depth; submissions beyond it get 503")
	runners := flag.Int("runners", envInt("CORONA_RUNNERS", 1), "jobs executed concurrently")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	storeDir := flag.String("store", envStr("CORONA_STORE", ""), "durable job journal directory; restarts resume interrupted jobs (empty = in-memory only)")
	logFormat := flag.String("log", envStr("CORONA_LOG", "text"), "log format: text or json")
	mode := flag.String("mode", envStr("CORONA_MODE", "worker"), "worker executes jobs locally; coordinator shards them across -peers")
	peers := flag.String("peers", envStr("CORONA_PEERS", ""), "comma-separated worker base URLs (coordinator mode), e.g. http://w1:8451,http://w2:8451")
	heartbeat := flag.Duration("heartbeat", envDur("CORONA_HEARTBEAT", 0), "coordinator worker-heartbeat cadence (0 = 1s default)")
	deadAfter := flag.Int("dead-after", envInt("CORONA_DEAD_AFTER", 0), "consecutive missed beats (failed heartbeats or dispatches) before a worker is declared dead (0 = 3 default)")
	specAfter := flag.Duration("speculation-after", envDur("CORONA_SPECULATION_AFTER", 0), "minimum lease age before it can be judged a straggler (0 = 2s default)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "corona-serve: -log %q: want text or json\n", *logFormat)
		return 2
	}
	log := slog.New(handler)

	var peerClients []*server.Client
	switch *mode {
	case "worker":
		if *peers != "" {
			fmt.Fprintln(os.Stderr, "corona-serve: -peers requires -mode coordinator")
			return 2
		}
	case "coordinator":
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peerClients = append(peerClients, server.NewClient(u))
			}
		}
		if len(peerClients) == 0 {
			fmt.Fprintln(os.Stderr, "corona-serve: -mode coordinator needs at least one -peers worker URL")
			return 2
		}
	default:
		fmt.Fprintf(os.Stderr, "corona-serve: -mode %q: want worker or coordinator\n", *mode)
		return 2
	}

	if spec := os.Getenv("CORONA_FAULTS"); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			log.Error("bad CORONA_FAULTS spec", "spec", spec, "err", err)
			return 2
		}
		log.Warn("fault injection armed — this daemon WILL fail on purpose", "spec", spec)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, store.Options{Logger: log}); err != nil {
			log.Error("opening job store", "dir", *storeDir, "err", err)
			return 1
		}
		defer st.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := server.New(server.Options{
		Client:     core.NewClient(core.WithWorkers(*workers), core.WithCacheDir(*cacheDir)),
		QueueDepth: *queue,
		Runners:    *runners,
		Store:      st,
		Logger:     log,
		Peers:      peerClients,
		Tuning: server.FleetTuning{
			HeartbeatInterval: *heartbeat,
			DeadAfter:         *deadAfter,
			SpeculationAfter:  *specAfter,
		},
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Info("listening", "addr", "http://"+*addr, "mode", *mode, "fleet", len(peerClients),
		"queue", *queue, "runners", *runners, "store", *storeDir)

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure here (Shutdown happens on
		// the signal path below).
		log.Error("serving", "err", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Info("shutting down", "drain", *drain)

	// Cancel jobs first so live NDJSON streams reach their terminal state,
	// then let the HTTP server drain those connections. Journaled jobs
	// interrupted here keep no terminal status and resume on the next start.
	srv.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("shutdown", "err", err)
		return 1
	}
	return 0
}
