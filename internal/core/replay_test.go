package core

import (
	"context"
	"testing"

	"corona/internal/config"
	"corona/internal/traffic"
)

// TestEntryPointsAgree is the one-engine anchor: the three ways to run a
// cell — Client.Run (core.Run on a fresh machine, the reference), a
// Client.Compare row and a submitted Sweep's cell — must report the
// identical Result, every field, on a mesh and a crossbar machine. Compare
// runs at the raw seed, a Sweep cell at CellSeed(seed, workload).
func TestEntryPointsAgree(t *testing.T) {
	configs := []config.System{config.Custom("", "hmesh", config.ECM, nil), config.Corona()}
	all := AllWorkloads()
	specs := []traffic.Spec{all[0], all[1], all[4]}
	const requests, seed = 1500, 77
	ctx := context.Background()
	client := NewClient(WithWorkers(2))
	run := func(cfg config.System, spec traffic.Spec, seed uint64) Result {
		t.Helper()
		res, err := client.Run(ctx, cfg, spec, requests, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, spec := range specs {
		row, err := client.Compare(ctx, spec, requests, seed, configs...)
		if err != nil {
			t.Fatal(err)
		}
		for c, cfg := range configs {
			if want := run(cfg, spec, seed); row[c] != want {
				t.Errorf("Compare %s on %s differs from Run:\ncompare: %+v\nrun:     %+v",
					spec.Name, cfg.Name(), row[c], want)
			}
		}
	}
	s := NewMatrixSweep(configs, specs, requests, seed)
	mustSweep(t, NewClient(WithWorkers(2)), s)
	for w, spec := range specs {
		for c, cfg := range configs {
			if want := run(cfg, spec, CellSeed(seed, spec.Name)); s.Results[w][c] != want {
				t.Errorf("Sweep cell %s on %s differs from Run:\nsweep: %+v\nrun:   %+v",
					spec.Name, cfg.Name(), s.Results[w][c], want)
			}
		}
	}
}

// TestReplayRunnerRejectsMismatchedClusters: a materialized stream only
// replays on a machine with the same endpoint count.
func TestReplayRunnerRejectsMismatchedClusters(t *testing.T) {
	spec := traffic.Spec{Name: "Uniform", Kind: traffic.Uniform, DemandTBs: 5}
	buckets := MaterializeStream(spec, 16, 160, 1)
	sys, err := NewSystem(config.Corona()) // 64 clusters
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayRunner(sys, spec.Name, buckets); err == nil {
		t.Fatal("ReplayRunner accepted a 16-cluster stream on a 64-cluster machine")
	}
}

// TestPooledSweepParallelRace is the -race coverage for the two shared-
// nothing/shared-read structures the pooled data plane introduced: each
// cell's networks recycle messages through per-network free lists (private
// to the cell's kernel goroutine), while all cells of a row replay one
// materialized trace through read-only slice headers. Eight workers over a
// mesh+crossbar matrix hammer both, and the tables must still match the
// sequential run byte for byte.
func TestPooledSweepParallelRace(t *testing.T) {
	mk := func() *Sweep {
		return NewMatrixSweep(
			[]config.System{config.Custom("", "hmesh", config.ECM, nil), config.Corona()},
			AllWorkloads()[:4], 600, 42)
	}
	seq := mk()
	mustSweep(t, NewClient(WithWorkers(1)), seq)
	want := sweepTables(seq)
	for i := 0; i < 3; i++ {
		par := mk()
		mustSweep(t, NewClient(WithWorkers(8)), par)
		if sweepTables(par) != want {
			t.Fatalf("run %d: parallel pooled sweep diverged from sequential", i)
		}
	}
}
