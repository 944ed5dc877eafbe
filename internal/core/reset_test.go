package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"corona/internal/config"
	"corona/internal/sim"
	"corona/internal/trace"
)

// cancelEvent cancels a cell's context at a simulated time.
type cancelEvent context.CancelFunc

func (c cancelEvent) OnEvent(sim.Time, uint64) { c() }

// TestResetSystemMatchesFresh is the oracle for pooled reuse: a machine left
// mid-run by a canceled cell — messages, credits, controller bookings, and
// transactions all in flight — and then parked, handed out again, and Reset
// by systemPool must replay a cell exactly as a freshly built machine does,
// for each of the six machines (the five paper presets plus SWMR/OCM).
func TestResetSystemMatchesFresh(t *testing.T) {
	const (
		requests      = 1500
		dirtyRequests = 20000
		seed          = 7
	)
	specs := AllWorkloads()
	clean, dirty := specs[0], specs[1]
	cfgs := append(config.Combos(), config.Custom("", "swmr", config.OCM, nil))
	for _, cfg := range cfgs {
		t.Run(cfg.Name(), func(t *testing.T) {
			buckets := MaterializeStream(clean, cfg.Clusters, requests, seed)
			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := replayCell(t, fresh, clean.Name, buckets)

			// Cancel a different workload's cell partway through its replay.
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ReplayRunner(sys, dirty.Name, MaterializeStream(dirty, cfg.Clusters, dirtyRequests, seed))
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

			pool := newSystemPool()
			keys := pool.begin([]config.System{cfg})
			defer pool.end(keys)
			pool.put(keys[0], sys)
			got, err := pool.get(keys[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != sys {
				t.Fatal("pool built a new machine instead of resetting the parked one")
			}
			if res := replayCell(t, got, clean.Name, buckets); res != want {
				t.Errorf("reset machine diverges from a fresh one:\nfresh: %+v\nreset: %+v", want, res)
			}
		})
	}
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
