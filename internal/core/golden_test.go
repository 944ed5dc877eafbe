package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"corona/internal/config"
)

// goldenTables renders the four figure tables with their CLI headings — the
// byte-exact artifact testdata/golden_figures.txt captures.
func goldenTables(s *Sweep) string {
	return "Figure 8: Normalized Speedup (over LMesh/ECM)\n" + s.Figure8().String() +
		"\nFigure 9: Achieved Bandwidth (TB/s)\n" + s.Figure9().String() +
		"\nFigure 10: Average L2 Miss Latency (ns)\n" + s.Figure10().String() +
		"\nFigure 11: On-chip Network Power (W)\n" + s.Figure11().String()
}

// TestGoldenFigureTables guards the refactor-safety criterion: the five
// preset machines must render byte-identical Figure 8-11 tables to the
// build that generated testdata/golden_figures.txt (captured before the
// fabric-registry refactor). Any model change that legitimately moves the
// numbers must regenerate the golden — and bump the sweep cache schema —
// in the same commit, with the shift called out in the PR.
//
// The sweep runs through the Client/Job submission path — streamed cells
// and all — so the golden also pins the new API to the old bytes.
func TestGoldenFigureTables(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSweep(500, 1)
	job, err := NewClient().Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for cell := range job.Results() {
		if cell.Result.Cycles == 0 {
			t.Errorf("streamed cell %d (%s on %s) has zero runtime", cell.Index, cell.Workload, cell.Config)
		}
		streamed++
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if streamed != 75 {
		t.Fatalf("streamed %d cells, want 75", streamed)
	}
	got := goldenTables(job.Sweep())
	if got != string(want) {
		t.Fatalf("preset figure tables diverged from the pre-refactor golden.\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}

// sixMachineMatrix is the acceptance-criterion matrix: the paper's five
// presets plus the SWMR/OCM variant, over all fifteen workloads.
func sixMachineMatrix(requests int) *Sweep {
	configs := append(config.Combos(), config.Custom("", "swmr", config.OCM, nil))
	return NewMatrixSweep(configs, AllWorkloads(), requests, 42)
}

// TestMatrixSweepSixConfigsDeterministic runs the 6x15 matrix sequentially
// and at several worker counts and asserts byte-identical tables — the
// arbitrary-matrix generalization of the 5x15 determinism guarantee.
func TestMatrixSweepSixConfigsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("90-cell matrix")
	}
	seq := sixMachineMatrix(300)
	mustSweep(t, NewClient(WithWorkers(1)), seq)
	if got := len(seq.Results[0]); got != 6 {
		t.Fatalf("matrix has %d config columns, want 6", got)
	}
	want := sweepTables(seq)
	for _, workers := range []int{0, 3, 8} {
		par := sixMachineMatrix(300)
		job, err := NewClient(WithWorkers(workers)).Submit(context.Background(), par)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if sweepTables(par) != want {
			t.Fatalf("WithWorkers(%d) 6x15 tables differ from sequential", workers)
		}
	}
	// The SWMR column must be populated and distinct from XBar's: same
	// photonic bandwidth, different arbitration and queueing structure.
	var swmrDiffers bool
	for w := range seq.Workloads {
		xb, sw := seq.Results[w][4], seq.Results[w][5]
		if sw.Cycles == 0 || sw.Config != "SWMR/OCM" {
			t.Fatalf("SWMR cell %d empty or mislabelled: %+v", w, sw)
		}
		if sw.Cycles != xb.Cycles {
			swmrDiffers = true
		}
	}
	if !swmrDiffers {
		t.Error("SWMR column identical to XBar on every workload (fabric seam suspicious)")
	}
}

// TestSweepCacheDistinguishesParams is the cache-key collision regression:
// two custom configs sharing a fabric (and thus nearly the same name-level
// identity) must occupy distinct cache entries, because the key fingerprints
// the full parameter set, not the display names.
func TestSweepCacheDistinguishesParams(t *testing.T) {
	dir := t.TempDir()
	run := func(recvBuffer int) (*Sweep, int) {
		cfg := config.Custom("Tuned", "swmr", config.OCM,
			map[string]int{"recv_buffer": recvBuffer})
		s := NewMatrixSweep([]config.System{cfg}, AllWorkloads()[:1], 300, 7)
		return s, cacheHits(mustSweep(t, NewClient(WithCacheDir(dir)), s))
	}
	small, h := run(2)
	if h != 0 {
		t.Fatalf("cold cache: %d hits", h)
	}
	big, h := run(16)
	if h != 0 {
		t.Fatalf("same label, different recv_buffer: %d cache hits (collision!)", h)
	}
	if small.Results[0][0] == big.Results[0][0] {
		t.Fatal("2-credit and 16-credit runs produced identical results (param not applied)")
	}
	if _, h = run(2); h != 1 {
		t.Fatalf("warm re-run of the 2-credit config: %d hits, want 1", h)
	}
	again, _ := run(2)
	if again.Results[0][0] != small.Results[0][0] {
		t.Fatal("cached result differs from the live 2-credit run")
	}
}

// matrixDigest pins every Result field of the 6x15 matrix at 2000 requests
// per cell — KernelEvents, NetMessages and HopTraversals included — as a
// sha256 over json.Marshal(Results). The figure tables round and omit the
// diagnostics, so a change that dispatches one more (or one fewer) kernel
// event or moves one message would pass the golden tables unseen. A change
// to the simulator's internals (scheduler layout, fabric bookkeeping) must
// leave this digest unchanged; a change to the model must update it and
// say why.
const matrixDigest = "1bb03b0323ef1279491150777cb3543f6ad48f3afeec4a489e5f49f064ba358b"

func TestMatrixResultDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("90-cell matrix")
	}
	s := sixMachineMatrix(2000)
	mustSweep(t, NewClient(), s)
	raw, err := json.Marshal(s.Results)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != matrixDigest {
		t.Fatalf("6x15 Result digest = %s, want %s (event count, order or a Result field changed)", got, matrixDigest)
	}
}
