package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"corona/internal/config"
)

// subsetSweep builds a small 2-config x 3-workload matrix (6 cells) that
// simulates in milliseconds.
func subsetSweep() *Sweep {
	return NewMatrixSweep(config.Combos()[:2], AllWorkloads()[:3], 300, 17)
}

// TestSubsetMatchesFullRun is the shard-subset determinism contract: the
// matrix split into 1, 2, or 5 disjoint index shards — each executed as an
// independent Subset job, as a fleet's workers would — reassembles into a
// Results grid field-identical to one full run, and every shard streams
// exactly its own cells.
func TestSubsetMatchesFullRun(t *testing.T) {
	ref := subsetSweep()
	mustSweep(t, NewClient(WithWorkers(1)), ref)
	total := len(ref.Configs) * len(ref.Workloads)

	for _, shards := range [][][]int{
		{{0, 1, 2, 3, 4, 5}},
		{{0, 1, 2}, {3, 4, 5}},
		{{0, 1}, {2}, {3}, {4}, {5}},
	} {
		merged := subsetSweep()
		merged.Results = make([][]Result, len(merged.Workloads))
		for w := range merged.Results {
			merged.Results[w] = make([]Result, len(merged.Configs))
		}
		for _, shard := range shards {
			s := subsetSweep()
			want := map[int]bool{}
			for _, i := range shard {
				want[i] = true
			}
			job, err := NewClient(WithWorkers(2)).Submit(context.Background(), s, Subset(shard))
			if err != nil {
				t.Fatalf("%d shards: submit shard %v: %v", len(shards), shard, err)
			}
			for cell := range job.Results() {
				if !want[cell.Index] {
					t.Errorf("%d shards: shard %v surfaced foreign cell %d", len(shards), shard, cell.Index)
				}
				merged.Results[cell.Row][cell.Col] = cell.Result
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Fatalf("%d shards: shard %v job: %v", len(shards), shard, err)
			}
			// A subset job counts progress against its own cells.
			if done, tot := job.Progress(); done != len(shard) || tot != len(shard) {
				t.Errorf("%d shards: shard %v job Progress() = %d/%d, want %d/%d",
					len(shards), shard, done, tot, len(shard), len(shard))
			}
			// The shard's own grid holds only its cells; others stay zero.
			for i := 0; i < total; i++ {
				got := s.Results[i/len(s.Configs)][i%len(s.Configs)]
				if want[i] && got.Cycles == 0 {
					t.Errorf("%d shards: shard %v left its cell %d empty", len(shards), shard, i)
				}
				if !want[i] && got.Cycles != 0 {
					t.Errorf("%d shards: shard %v simulated foreign cell %d", len(shards), shard, i)
				}
			}
		}
		if !reflect.DeepEqual(merged.Results, ref.Results) {
			t.Errorf("%d shards: merged subset results differ from the full run", len(shards))
		}
	}
}

// TestSubsetRejectsBadIndices pins the pre-flight validation: Client.Submit
// reports out-of-range, duplicate, and explicitly empty subsets
// synchronously as a *ConfigError, so no job starts and no cell simulates.
func TestSubsetRejectsBadIndices(t *testing.T) {
	for name, subset := range map[string][]int{
		"negative":     {-1},
		"out of range": {0, 6},
		"far out":      {99},
		"duplicate":    {1, 2, 1},
		"empty":        {},
	} {
		job, err := NewClient().Submit(context.Background(), subsetSweep(), Subset(subset))
		if !errors.As(err, new(*ConfigError)) {
			t.Errorf("%s subset %v: Submit err = %v, want synchronous *ConfigError", name, subset, err)
		}
		if job != nil {
			t.Errorf("%s subset %v: rejected Submit returned a job", name, subset)
		}
	}
}
