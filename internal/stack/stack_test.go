package stack

import (
	"strings"
	"testing"
)

func TestPaperEndpoints(t *testing.T) {
	p, s := Penryn(), Silverthorne()
	// Section 3.1.1: "Total die area ... between 423 mm2 (Penryn based) and
	// 491 mm2 (Silverthorne based)"; power "between 82 watts (Silverthorne
	// based) and 155 watts (Penryn based)".
	if p.DieAreaMM2 != 423 || s.DieAreaMM2 != 491 {
		t.Errorf("die areas = %v/%v, want 423/491", p.DieAreaMM2, s.DieAreaMM2)
	}
	if p.ProcessorPowerW != 155 || s.ProcessorPowerW != 82 {
		t.Errorf("power = %v/%v, want 155/82", p.ProcessorPowerW, s.ProcessorPowerW)
	}
	// The cell-design difference the paper cites.
	if p.L1CellTransistors != 6 || s.L1CellTransistors != 8 {
		t.Error("L1 cell transistor counts wrong")
	}
}

func TestBudgetRanges(t *testing.T) {
	b := Estimate(64)
	if b.MinDieAreaMM2 != 423 || b.MaxDieAreaMM2 != 491 {
		t.Errorf("area range = %v-%v", b.MinDieAreaMM2, b.MaxDieAreaMM2)
	}
	if b.MinProcessorW != 82 || b.MaxProcessorW != 155 {
		t.Errorf("power range = %v-%v", b.MinProcessorW, b.MaxProcessorW)
	}
	if b.PhotonicW != 39 {
		t.Errorf("photonic power = %v, want 39", b.PhotonicW)
	}
	if b.PeakTeraflops < 10 || b.PeakTeraflops > 10.5 {
		t.Errorf("peak = %v TF, want ~10.24", b.PeakTeraflops)
	}
	lo, hi := b.TotalPowerRange()
	if lo >= hi || lo < 82+39 || hi > 155+39+10 {
		t.Errorf("total power band = %v-%v", lo, hi)
	}
}

func TestTSVBudget(t *testing.T) {
	v := EstimateTSVs(64)
	// 896 signal vias per cluster.
	if v.SignalTSVs != 64*896 {
		t.Errorf("signal TSVs = %d, want %d", v.SignalTSVs, 64*896)
	}
	if v.PGCTSVs <= 0 {
		t.Error("no pgc TSVs")
	}
	// Budget scales linearly with clusters.
	if EstimateTSVs(128).SignalTSVs != 2*v.SignalTSVs {
		t.Error("signal TSVs do not scale with clusters")
	}
}

func TestDieNames(t *testing.T) {
	if numDies != 4 {
		t.Fatal("stack must have 4 dies (Figure 7)")
	}
	want := []string{"processor/L1", "MC/directory/L2", "analog electronics", "optical"}
	for i, d := range []Die{ProcessorDie, CacheDie, AnalogDie, OpticalDie} {
		if d.String() != want[i] {
			t.Errorf("die %d = %q, want %q", i, d, want[i])
		}
	}
	if !strings.HasPrefix(Die(9).String(), "die(") {
		t.Error("unknown die should format numerically")
	}
}

func TestTableRendering(t *testing.T) {
	s := Estimate(64).Table().String()
	for _, want := range []string{"423-491 mm^2", "82-155 W", "39 W", "10.24 teraflops", "processor/L1"} {
		if !strings.Contains(s, want) {
			t.Errorf("stack table missing %q:\n%s", want, s)
		}
	}
}
