package core

import (
	"context"
	"runtime"
	"testing"

	"corona/internal/config"
	"corona/internal/trace"
)

// retainedHeap builds cfg's machine, replays every stream on it (Reset
// between cells, as the pool does), and returns the heap the machine holds
// afterwards — HeapAlloc after a collection, less the same reading before
// the build — with the machine.
func retainedHeap(t *testing.T, cfg config.System, names []string, streams [][][]trace.Record) (uint64, *System) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, sys, names, streams)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, sys
	}
	return after.HeapAlloc - before.HeapAlloc, sys
}

// replayAll resets sys and replays each stream on it in turn.
func replayAll(t *testing.T, sys *System, names []string, streams [][][]trace.Record) {
	t.Helper()
	for i, buckets := range streams {
		if err := sys.Reset(); err != nil {
			t.Fatal(err)
		}
		r, err := ReplayRunner(sys, names[i], buckets)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMachineFootprint bounds what each of the six machines keeps after
// fifteen 150-request cells: a machine sized by the traffic it carried, not
// by its worst case. Per-pair structures built at full size — 64×64 hub or
// crossbar queue headers, 128-slot MSHR tables, booking lists seeded to the
// controller queue depth — held 460–650 KB per machine and fail the bound.
// A second pass over the same cells must grow nothing: its only
// allocations are each cell's Runner, the Runner's copy of the bucket list
// and its waiting flags, and the Result's machine name.
func TestMachineFootprint(t *testing.T) {
	const (
		requests   = 150
		seed       = 42
		bound      = 300 << 10
		cellAllocs = 4
	)
	specs := AllWorkloads()
	cfgs := append(config.Combos(), config.Custom("", "swmr", config.OCM, nil))
	for _, cfg := range cfgs {
		t.Run(cfg.Name(), func(t *testing.T) {
			names := make([]string, len(specs))
			streams := make([][][]trace.Record, len(specs))
			for i, spec := range specs {
				names[i], streams[i] = spec.Name, MaterializeStream(spec, cfg.Clusters, requests, seed)
			}
			retained, sys := retainedHeap(t, cfg, names, streams)
			if retained > bound {
				t.Errorf("%s retains %d KB after %d cells of %d requests, want at most %d KB",
					cfg.Name(), retained>>10, len(specs), requests, bound>>10)
			}
			allocs := testing.AllocsPerRun(2, func() { replayAll(t, sys, names, streams) })
			if limit := float64(cellAllocs * len(specs)); allocs > limit {
				t.Errorf("%s: a second pass over the cells allocates %.0f times, want at most %.0f (the runners' own)",
					cfg.Name(), allocs, limit)
			}
		})
	}
}
