package cluster

import (
	"bytes"
	"testing"

	"corona/internal/trace"
)

func TestPeakTeraflops(t *testing.T) {
	// 256 cores x 4-wide FMA x 5 GHz = 10.24 teraflops — the paper's "10
	// teraflop" headline.
	got := PeakSystemTeraflops(64)
	if got < 10 || got > 10.5 {
		t.Fatalf("peak = %v TF, want ~10.24", got)
	}
}

func TestClusterStructure(t *testing.T) {
	c := New(3, false)
	if len(c.Cores) != 4 {
		t.Fatal("cluster must have 4 cores")
	}
	if c.L2.Config().SizeBytes != 4<<20 {
		t.Errorf("L2 = %d bytes, want 4 MB", c.L2.Config().SizeBytes)
	}
	if New(0, true).L2.Config().SizeBytes != 256<<10 {
		t.Error("sim L2 should be 256 KB (Section 4)")
	}
	if c.Cores[0].ID != 12 {
		t.Errorf("core 0 of cluster 3 has id %d, want 12", c.Cores[0].ID)
	}
}

func TestAccessHierarchy(t *testing.T) {
	c := New(0, true)
	// Cold: miss to memory.
	miss, _, _ := c.Access(0, 0x10000, false)
	if !miss {
		t.Fatal("cold access should miss to memory")
	}
	// Warm in L1: hit.
	miss, _, _ = c.Access(0, 0x10000, false)
	if miss {
		t.Fatal("warm access should hit")
	}
	// Different thread on same core shares L1; different core misses L1 but
	// hits shared L2.
	miss, _, _ = c.Access(1, 0x10000, false) // same core (threads 0-3)
	if miss {
		t.Fatal("same-core thread should hit L1")
	}
	miss, _, _ = c.Access(4, 0x10000, false) // core 1: L1 miss, L2 hit
	if miss {
		t.Fatal("cross-core access should hit shared L2")
	}
}

func TestAccessBadThreadPanics(t *testing.T) {
	c := New(0, true)
	defer func() {
		if recover() == nil {
			t.Error("bad thread did not panic")
		}
	}()
	c.Access(16, 0, false)
}

func TestMissRateTracksWorkingSet(t *testing.T) {
	// A tiny working set (fits in L1) should produce a near-zero miss rate;
	// a pure stream should miss on every new line (1/8 of references after
	// L1 spatial reuse... here stream strides a full line, so ~100%).
	small := NewTraceEngine(New(0, true), ThreadModel{
		WorkingSetLines: 64, StreamFrac: 0, WriteFrac: 0.3, ReferencesPerCycle: 0.5,
	}, 1)
	// Warm-up produces exactly the compulsory misses (16 threads x 64 lines);
	// steady state adds none.
	step(small, 50000)
	if misses := step(small, 50000); misses != 0 {
		t.Errorf("L1-resident working set missed %d times after warm-up, want 0", misses)
	}

	stream := NewTraceEngine(New(1, true), ThreadModel{
		WorkingSetLines: 64, StreamFrac: 1, WriteFrac: 0, ReferencesPerCycle: 0.5,
	}, 2)
	if r := float64(step(stream, 50000)) / 50000; r < 0.9 {
		t.Errorf("pure-stream miss rate = %v, want ~1", r)
	}
}

// step advances e by n references, round-robin over its threads from
// thread 0, and returns how many produced a miss record.
func step(e *TraceEngine, n int) int {
	misses := 0
	for i := 0; i < n; i++ {
		if _, ok := e.Step(i % ThreadsPerCluster); ok {
			misses++
		}
	}
	return misses
}

func TestCapacityMisses(t *testing.T) {
	// A working set far beyond the 256 KB sim L2 must produce substantial
	// capacity misses even with no streaming.
	big := NewTraceEngine(New(0, true), ThreadModel{
		WorkingSetLines: 64 * 1024, // 4 MB per thread
		StreamFrac:      0, WriteFrac: 0.3, ReferencesPerCycle: 0.5,
	}, 3)
	if r := float64(step(big, 100000)) / 100000; r < 0.5 {
		t.Errorf("L2-thrashing working set miss rate = %v, want high", r)
	}
}

func TestGenerateTrace(t *testing.T) {
	e := NewTraceEngine(New(2, true), ThreadModel{
		WorkingSetLines: 32 * 1024, StreamFrac: 0.2, WriteFrac: 0.3, ReferencesPerCycle: 0.5,
	}, 4)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Generate(w, 1000); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1000 {
		t.Fatalf("trace has %d records, want 1000", len(recs))
	}
	perThread := map[uint16]uint64{}
	for _, rec := range recs {
		if rec.Cluster(ThreadsPerCluster) != 2 {
			t.Fatalf("record thread %d not in cluster 2", rec.Thread)
		}
		if uint64(rec.Time) < perThread[rec.Thread] {
			t.Fatal("per-thread times must be monotone")
		}
		perThread[rec.Thread] = uint64(rec.Time)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() int {
		e := NewTraceEngine(New(0, true), ThreadModel{
			WorkingSetLines: 8192, StreamFrac: 0.1, WriteFrac: 0.3, ReferencesPerCycle: 0.5,
		}, 99)
		return step(e, 20000)
	}
	if run() != run() {
		t.Fatal("engine is not deterministic")
	}
}

func TestInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid model did not panic")
		}
	}()
	NewTraceEngine(New(0, true), ThreadModel{}, 1)
}
