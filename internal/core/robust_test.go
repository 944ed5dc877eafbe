package core

import (
	"context"
	"errors"
	"testing"

	"corona/internal/config"
	"corona/internal/faultinject"
	"corona/internal/traffic"
)

// tinyMatrix is a 2-config x 2-workload matrix for the containment tests.
func tinyMatrix(requests int, seed uint64) *Sweep {
	return NewMatrixSweep(config.Combos()[:2],
		[]traffic.Spec{quickSpec(1), quickSpec(2)}, requests, seed)
}

// TestCellPanicFailsSweepNotProcess arms the cell fault point in panic mode
// and asserts the panic surfaces as the job's *PanicError — not as an
// unwound goroutine — and that the engine works normally afterwards.
func TestCellPanicFailsSweepNotProcess(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Arm("core.cell.run:panic@1"); err != nil {
		t.Fatal(err)
	}
	_, err := sweep(NewClient(WithWorkers(2)), tinyMatrix(200, 7))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("job error = %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	faultinject.Disarm()

	// The same process serves the next sweep untouched.
	s2 := tinyMatrix(200, 7)
	mustSweep(t, NewClient(WithWorkers(2)), s2)
	if s2.Results[0][0].Cycles == 0 {
		t.Fatal("sweep after contained panic produced empty results")
	}
}

// TestCellFaultErrorFailsSweep is the error-mode twin: an injected cell
// error fails the sweep with the fault, not a cancellation.
func TestCellFaultErrorFailsSweep(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Arm("core.cell.run:error@2"); err != nil {
		t.Fatal(err)
	}
	_, err := sweep(NewClient(WithWorkers(1)), tinyMatrix(200, 7))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("job error = %v, want the injected fault", err)
	}
}

// TestComparePanicContained covers Client.Compare with the same barrier.
func TestComparePanicContained(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Arm("core.cell.run:panic@1"); err != nil {
		t.Fatal(err)
	}
	_, err := NewClient(WithWorkers(2)).Compare(context.Background(), quickSpec(1), 200, 3,
		config.Corona(), config.Corona())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Compare = %v, want *PanicError", err)
	}
}

// TestPrecomputedCellsSkipSimulation resumes a sweep whose cell 1 is
// already known — as a journal would hold it — by running the complement
// through Subset: the known cell never simulates or surfaces, while the
// rest simulate to exactly what an uninterrupted run produces — the
// property the server's restart-resume path is built on.
func TestPrecomputedCellsSkipSimulation(t *testing.T) {
	ref := tinyMatrix(300, 9)
	mustSweep(t, NewClient(WithWorkers(1)), ref)

	resumed := tinyMatrix(300, 9)
	total := len(ref.Configs) * len(ref.Workloads)
	var rest []int
	for i := 0; i < total; i++ {
		if i != 1 {
			rest = append(rest, i)
		}
	}
	cells := mustSweep(t, NewClient(WithWorkers(2)), resumed, Subset(rest))

	for w := range ref.Results {
		for c := range ref.Results[w] {
			idx := w*len(ref.Configs) + c
			if idx == 1 {
				if resumed.Results[w][c] != (Result{}) {
					t.Fatalf("known cell %d simulated: %+v", idx, resumed.Results[w][c])
				}
				continue
			}
			if resumed.Results[w][c] != ref.Results[w][c] {
				t.Fatalf("cell %d differs from the uninterrupted run:\n%+v\nvs\n%+v",
					idx, resumed.Results[w][c], ref.Results[w][c])
			}
		}
	}
	if len(cells) != len(rest) {
		t.Errorf("streamed %d cells, want %d", len(cells), len(rest))
	}
	for _, cell := range cells {
		if cell.Index == 1 {
			t.Error("known cell 1 surfaced")
		}
	}
}
