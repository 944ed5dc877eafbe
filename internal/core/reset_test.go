package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"corona/internal/config"
	"corona/internal/sim"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// cancelEvent cancels a cell's context at a simulated time.
type cancelEvent context.CancelFunc

func (c cancelEvent) OnEvent(sim.Time, uint64) { c() }

// TestResetSystemMatchesFresh is the oracle for pooled reuse: a machine
// reset by systemPool must replay a cell exactly as a freshly built machine
// does, for each of the six machines (the five paper presets plus
// SWMR/OCM), whichever way the machine's grown structures were sized:
//
//   - left mid-run by a canceled saturated cell — messages, credits,
//     controller bookings and transactions all in flight, queues, MSHR
//     tables and booking lists grown under load — then given a
//     150-request cell of the same workload or a 1,500-request cell of
//     another;
//   - warmed only on fifteen 150-request cells, then given a saturated
//     20,000-request cell that must grow them past anything the warm-up
//     needed.
func TestResetSystemMatchesFresh(t *testing.T) {
	const (
		seed          = 7
		dirtyRequests = 20000
		warmRequests  = 150
	)
	specs := AllWorkloads()
	clean, hot := specs[0], specs[1] // Uniform, Hot Spot
	cfgs := append(config.Combos(), config.Custom("", "swmr", config.OCM, nil))
	for _, cfg := range cfgs {
		t.Run(cfg.Name(), func(t *testing.T) {
			pool := newSystemPool()
			keys := pool.begin([]config.System{cfg})
			defer pool.end(keys)
			// reuse parks sys, takes it back Reset, and replays a cell on it.
			reuse := func(sys *System, name string, buckets [][]trace.Record) Result {
				t.Helper()
				pool.put(keys[0], sys)
				got, err := pool.get(keys[0], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != sys {
					t.Fatal("pool built a new machine instead of resetting the parked one")
				}
				return replayCell(t, got, name, buckets)
			}

			// The 150-request cell replays the canceled workload, so state a
			// Reset left behind for its lines would show; the 1,500-request
			// cell is another workload.
			for _, c := range []struct {
				spec     traffic.Spec
				requests int
			}{{hot, 150}, {clean, 1500}} {
				buckets := MaterializeStream(c.spec, cfg.Clusters, c.requests, seed)
				want := replayCell(t, newTestSystem(t, cfg), c.spec.Name, buckets)
				sys := canceledMidRun(t, cfg, hot.Name, MaterializeStream(hot, cfg.Clusters, dirtyRequests, seed))
				if got := reuse(sys, c.spec.Name, buckets); got != want {
					t.Errorf("%s at %d requests after a canceled cell: reset machine diverges from a fresh one:\nfresh: %+v\nreset: %+v",
						c.spec.Name, c.requests, want, got)
				}
			}

			sys := newTestSystem(t, cfg)
			for _, spec := range specs {
				reuse(sys, spec.Name, MaterializeStream(spec, cfg.Clusters, warmRequests, seed))
			}
			for _, spec := range []traffic.Spec{hot, clean} {
				buckets := MaterializeStream(spec, cfg.Clusters, dirtyRequests, seed)
				want := replayCell(t, newTestSystem(t, cfg), spec.Name, buckets)
				if got := reuse(sys, spec.Name, buckets); got != want {
					t.Errorf("%s at %d requests after %d-request cells: reset machine diverges from a fresh one:\nfresh: %+v\nreset: %+v",
						spec.Name, dirtyRequests, warmRequests, want, got)
				}
			}
		})
	}
}

func newTestSystem(t *testing.T, cfg config.System) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// canceledMidRun builds cfg's machine and cancels a replay of buckets on it
// partway through, requiring transactions, events and controller bookings
// left in flight.
func canceledMidRun(t *testing.T, cfg config.System, name string, buckets [][]trace.Record) *System {
	t.Helper()
	sys := newTestSystem(t, cfg)
	r, err := ReplayRunner(sys, name, buckets)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys.K.ScheduleEvent(4000, cancelEvent(cancel), 0)
	var ce *CanceledError
	if _, err := r.Run(ctx); !errors.As(err, &ce) {
		t.Fatalf("dirty cell: got %v, want a *CanceledError", err)
	}
	booked := 0
	for _, mc := range sys.MCs {
		booked += mc.QueueLen()
	}
	if sys.txnSlots.Len() == 0 || sys.K.Pending() == 0 || booked == 0 {
		t.Fatalf("cancel left nothing in flight (txns %d, events %d, controller bookings %d)",
			sys.txnSlots.Len(), sys.K.Pending(), booked)
	}
	return sys
}

// replayCell replays a materialized stream on sys to completion. A machine
// that Reset left with lost credits can livelock on injection polls instead
// of deadlocking, so the replay is bounded in wall-clock time: the cell
// takes milliseconds, and the bound only turns a hang into a failure.
func replayCell(t *testing.T, sys *System, name string, buckets [][]trace.Record) Result {
	t.Helper()
	r, err := ReplayRunner(sys, name, buckets)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
