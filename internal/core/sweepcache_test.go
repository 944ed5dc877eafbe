package core

import (
	"os"
	"testing"

	"corona/internal/config"
	"corona/internal/traffic"
)

// TestCorruptedCacheEntryIsEvictedNotFatal plants a torn JSON file at a
// cell's exact cache path and asserts the sweep (a) still succeeds with the
// right result, (b) evicted the bad file, and (c) left a fresh valid entry
// in its place, so the next run hits.
func TestCorruptedCacheEntryIsEvictedNotFatal(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(1)
	cfg := config.Corona()
	want := mustRun(t, cfg, spec, 400, CellSeed(5, spec.Name))

	s := NewMatrixSweep([]config.System{cfg}, []traffic.Spec{spec}, 400, 5)

	// Plant the torn entry where the sweep's only cell will look.
	c := openCache(dir)
	fp, ok := cellFingerprint(cfg, spec, 400, CellSeed(5, spec.Name))
	if !ok {
		t.Fatal("cellFingerprint failed")
	}
	path := c.path(fp)
	if err := os.WriteFile(path, []byte(`{"schema":3,"fingerprint":"abc`), 0o644); err != nil {
		t.Fatal(err)
	}

	mustSweep(t, NewClient(WithWorkers(1), WithCacheDir(dir)), s)
	if s.Results[0][0] != want {
		t.Fatalf("sweep over a torn cache entry = %+v, want %+v", s.Results[0][0], want)
	}

	// The torn file was replaced by a valid entry: a reload must now hit.
	if res, hit := c.load(cfg, spec, 400, CellSeed(5, spec.Name)); !hit || res != want {
		t.Fatalf("cache after recovery: hit=%v res=%+v", hit, res)
	}
}

// TestUnreadableCacheNeverFailsSweep points the cache at a path that cannot
// be a directory and asserts the sweep still completes.
func TestUnreadableCacheNeverFailsSweep(t *testing.T) {
	file := t.TempDir() + "/not-a-dir"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewMatrixSweep([]config.System{config.Corona()}, []traffic.Spec{quickSpec(1)}, 300, 5)
	mustSweep(t, NewClient(WithWorkers(1), WithCacheDir(file+"/sub")), s)
	if s.Results[0][0].Cycles == 0 {
		t.Fatal("sweep with unusable cache dir produced no result")
	}
}
