package photonic

import (
	"math"
	"strings"
	"testing"
)

func TestInventoryMatchesTable2(t *testing.T) {
	g := DefaultGeometry()
	inv := Inventory(g)
	byName := map[string]SubsystemInventory{}
	for _, s := range inv {
		byName[s.Name] = s
	}
	cases := []struct {
		name       string
		waveguides int
		rings      int
	}{
		{"Memory", 128, 16 * 1024},
		{"Crossbar", 256, 1024 * 1024},
		{"Broadcast", 1, 8 * 1024},
		{"Arbitration", 2, 8 * 1024},
		{"Clock", 1, 64},
	}
	for _, c := range cases {
		s, ok := byName[c.name]
		if !ok {
			t.Fatalf("subsystem %q missing from inventory", c.name)
		}
		if s.Waveguides != c.waveguides {
			t.Errorf("%s waveguides = %d, want %d (Table 2)", c.name, s.Waveguides, c.waveguides)
		}
		if s.Rings != c.rings {
			t.Errorf("%s rings = %d, want %d (Table 2)", c.name, s.Rings, c.rings)
		}
	}
	total := InventoryTotal(inv)
	if total.Waveguides != 388 {
		t.Errorf("total waveguides = %d, want 388 (Table 2)", total.Waveguides)
	}
	// Paper reports ≈ 1056 K; exact sum is 1056.0625 K.
	if total.Rings < 1055*1024 || total.Rings > 1057*1024 {
		t.Errorf("total rings = %d, want ≈ 1056 K", total.Rings)
	}
}

func TestChannelGeometry(t *testing.T) {
	g := DefaultGeometry()
	if got := g.ChannelWavelengths(); got != 256 {
		t.Errorf("channel wavelengths = %d, want 256", got)
	}
	if got := g.ChannelBytesPerCycle(); got != 64 {
		t.Errorf("channel bytes/cycle = %d, want 64 (one cache line per clock)", got)
	}
	if got := g.MaxPropagationClocks(); got != 8 {
		t.Errorf("max propagation = %d clocks, want 8", got)
	}
}

func TestCrossbarBandwidth(t *testing.T) {
	g := DefaultGeometry()
	// 64 channels x 64 B/cycle x 5 GHz = 20.48 TB/s.
	perChannelTbps := float64(g.ChannelWavelengths()) * DataRateGbps / 1000
	if math.Abs(perChannelTbps-2.56) > 1e-9 {
		t.Errorf("per-cluster bandwidth = %v Tb/s, want 2.56", perChannelTbps)
	}
	totalTBs := float64(g.Clusters) * float64(g.ChannelBytesPerCycle()) * 5e9 / 1e12
	if math.Abs(totalTBs-20.48) > 1e-9 {
		t.Errorf("total crossbar bandwidth = %v TB/s, want 20.48", totalTBs)
	}
}

func TestWaveguidePropagation(t *testing.T) {
	cases := []struct {
		cm   float64
		want int
	}{
		{0, 0}, {1, 1}, {2, 1}, {2.1, 2}, {16, 8},
	}
	for _, c := range cases {
		if got := (Waveguide{LengthCm: c.cm}).PropagationClocks(); got != c.want {
			t.Errorf("PropagationClocks(%v cm) = %d, want %d", c.cm, got, c.want)
		}
	}
}

func TestWaveguideLoss(t *testing.T) {
	wg := Waveguide{LengthCm: 2, Rings: 10}
	want := 2*WaveguideLossDBPerCm + 10*RingThroughLossDB
	if got := wg.LossDB(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LossDB = %v, want %v", got, want)
	}
}

func TestSplitterLosses(t *testing.T) {
	s := Splitter{Tap: 0.5}
	// A 50/50 splitter loses ~3 dB on each side plus excess.
	if math.Abs(s.BranchLossDB()-(SplitterExcessLossDB+3.0103)) > 0.01 {
		t.Errorf("BranchLossDB = %v", s.BranchLossDB())
	}
	// Small tap: the branch is lossy.
	small := Splitter{Tap: 0.01}
	if small.BranchLossDB() < 19 {
		t.Errorf("1%% tap branch loss = %v, want ~20 dB", small.BranchLossDB())
	}
}

func TestLinkBudgetArithmetic(t *testing.T) {
	b := &LinkBudget{Name: "t", LaunchDBm: 3, SensitivityDBm: -20}
	b.Add("a", 5)
	b.Add("b", 7)
	if b.TotalLossDB() != 12 {
		t.Errorf("TotalLossDB = %v, want 12", b.TotalLossDB())
	}
	if b.ReceivedDBm() != -9 {
		t.Errorf("ReceivedDBm = %v, want -9", b.ReceivedDBm())
	}
	if b.MarginDB() != 11 {
		t.Errorf("MarginDB = %v, want 11", b.MarginDB())
	}
	if !b.Closes() {
		t.Error("budget should close")
	}
	if !strings.Contains(b.String(), "margin") {
		t.Error("String() should include margin")
	}
}

func TestCrossbarWorstCaseBudgetCloses(t *testing.T) {
	// With a few mW per wavelength the worst-case crossbar path must close:
	// the whole architecture depends on it.
	b := CrossbarWorstCaseBudget(10) // 10 dBm = 10 mW per λ
	if !b.Closes() {
		t.Errorf("worst-case crossbar budget does not close:\n%s", b)
	}
	// The figures corona-inventory prints, to its two decimals.
	want := []BudgetSegment{
		{"home power splitter", 18.16},
		{"serpentine waveguide", 5.43},
		{"active modulator", 0.50},
	}
	if len(b.Segments) != len(want) {
		t.Fatalf("budget has %d segments, want %d:\n%s", len(b.Segments), len(want), b)
	}
	for i, w := range want {
		if got := b.Segments[i]; got.Name != w.Name || math.Abs(got.LossDB-w.LossDB) > 0.005 {
			t.Errorf("segment %d = %q %.4f dB, want %q %.2f dB", i, got.Name, got.LossDB, w.Name, w.LossDB)
		}
	}
	if m := b.MarginDB(); math.Abs(m-5.91) > 0.005 {
		t.Errorf("margin = %.4f dB, want 5.91 dB", m)
	}
	// And with a microwatt it must not.
	b2 := CrossbarWorstCaseBudget(-30)
	if b2.Closes() {
		t.Error("budget closes with -30 dBm launch; loss model too optimistic")
	}
}

func TestOCMBudgetDepth(t *testing.T) {
	// More modules -> more loss, monotonically.
	prev := math.Inf(1)
	for n := 1; n <= 8; n++ {
		m := OCMBudget(0, n).MarginDB()
		if m >= prev {
			t.Fatalf("OCM margin not decreasing at depth %d", n)
		}
		prev = m
	}
	d := MaxOCMModules(0, 1)
	if d < 1 {
		t.Errorf("MaxOCMModules(0 dBm) = %d, want >= 1 (expansion must be possible)", d)
	}
	if MaxOCMModules(20, 1) <= d {
		t.Error("more launch power should allow deeper chains")
	}
}

func TestInventoryTableRenders(t *testing.T) {
	s := InventoryTable(DefaultGeometry()).String()
	for _, want := range []string{"Crossbar", "1024 K", "388", "Memory", "16 K"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, s)
		}
	}
}

func TestRingCountFormatting(t *testing.T) {
	if ringCount(64) != "64" {
		t.Errorf("ringCount(64) = %q", ringCount(64))
	}
	if ringCount(8192) != "8 K" {
		t.Errorf("ringCount(8192) = %q", ringCount(8192))
	}
	if ringCount(1048576) != "1024 K" {
		t.Errorf("ringCount(1048576) = %q", ringCount(1048576))
	}
	// Table 2's total, 1056.0625 K, rounds to the paper's "1056 K".
	if ringCount(1081408) != "1056 K" {
		t.Errorf("ringCount(1081408) = %q", ringCount(1081408))
	}
}
