package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"corona/internal/config"
	"corona/internal/trace"
)

// TestFinishedReplayReleasesStream replays a cell on a machine that stays
// alive, as a pooled machine does between cells, and requires the replayed
// stream to be unreachable from it once Run has returned, and again after
// System.Reset: neither the system's link to its runner nor stale handler
// slots in the kernel's chunk pool may pin the stream. At Table 3's request
// counts one pinned stream is gigabytes.
func TestFinishedReplayReleasesStream(t *testing.T) {
	cfg, err := config.ParseName("XBar/OCM")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := AllWorkloads()[0]
	freed := replayAndForget(t, sys, spec.Name, MaterializeStream(spec, cfg.Clusters, 20000, 42))
	if !collected(freed) {
		t.Error("the machine keeps its finished replay's stream alive after Run returns")
	}
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	if !collected(freed) {
		t.Error("the machine keeps its finished replay's stream alive after Reset")
	}
	runtime.KeepAlive(sys)
}

// replayAndForget runs buckets to completion on sys and returns a channel
// closed once the first cluster's records are garbage collected; the caller
// holds no other reference to the stream.
func replayAndForget(t *testing.T, sys *System, name string, buckets [][]trace.Record) <-chan struct{} {
	t.Helper()
	freed := make(chan struct{})
	runtime.SetFinalizer(&buckets[0][0], func(*trace.Record) { close(freed) })
	r, err := ReplayRunner(sys, name, buckets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return freed
}

// collected runs a garbage collection and reports whether the object whose
// finalizer closes freed was collected, waiting for the finalizer to run.
func collected(freed <-chan struct{}) bool {
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	select {
	case <-freed:
		return true
	case <-ctx.Done():
		return false
	}
}
