// Package stack models Corona's 3D package (Sections 3.1.1 and 3.4,
// Figure 7): the four-die stack (processor/L1, memory-controller/directory/
// L2, analog electronics, optical), its through-silicon via budget, and the
// paper's die-area and power estimates.
//
// The paper brackets its estimates between two core design points scaled to
// 16 nm: a Penryn-derived in-order core (aggressive, out-of-order die pruned
// 3x, power pruned 5x then +20% for quad threading) and a Silverthorne-
// derived core (conservative). Those published endpoints are encoded here
// and exposed as ranges, exactly as the paper reports them: 423-491 mm^2 of
// processor/L1 die and 82-155 W of processor+cache+MC+hub power, plus the
// 39 W photonic subsystem.
package stack

import (
	"fmt"

	"corona/internal/cluster"
	"corona/internal/power"
	"corona/internal/stats"
)

// CoreDesign is one of the paper's two scaling endpoints.
type CoreDesign struct {
	Name string
	// DieAreaMM2 is the processor/L1 die area for 256 cores at 16 nm.
	DieAreaMM2 float64
	// ProcessorPowerW covers processor, cache, memory controller, and hub.
	ProcessorPowerW float64
	// L1CellTransistors records the SRAM cell design difference the paper
	// cites for the area discrepancy.
	L1CellTransistors int
}

// Penryn returns the Penryn-derived (desktop/laptop segment) endpoint.
func Penryn() CoreDesign {
	return CoreDesign{Name: "Penryn-based", DieAreaMM2: 423, ProcessorPowerW: 155, L1CellTransistors: 6}
}

// Silverthorne returns the Silverthorne-derived (low-power embedded)
// endpoint.
func Silverthorne() CoreDesign {
	return CoreDesign{Name: "Silverthorne-based", DieAreaMM2: 491, ProcessorPowerW: 82, L1CellTransistors: 8}
}

// Die identifies one layer of the stack (Figure 7, heat sink down the list).
type Die uint8

// Stack layers, top (heat sink side) to bottom.
const (
	ProcessorDie Die = iota // clustered cores and L1s, adjacent to heat sink
	CacheDie                // memory controller / directory / L2
	AnalogDie               // detector circuits, ring resonance control
	OpticalDie              // waveguides, rings, detectors; oversized mezzanine
	numDies
)

// String names the die.
func (d Die) String() string {
	switch d {
	case ProcessorDie:
		return "processor/L1"
	case CacheDie:
		return "MC/directory/L2"
	case AnalogDie:
		return "analog electronics"
	case OpticalDie:
		return "optical"
	default:
		return fmt.Sprintf("die(%d)", uint8(d))
	}
}

// TSVBudget estimates the through-silicon via counts of Figure 7:
// signal TSVs (sTSVs) connect every L2-die communication endpoint down to
// the analog die; power/ground/clock TSVs (pgcTSVs) pierce three die to feed
// the two digital layers.
type TSVBudget struct {
	SignalTSVs int
	PGCTSVs    int
}

// EstimateTSVs sizes the via budget for a given cluster count: each cluster
// needs signal vias for its crossbar channel (256 λ wide, in and out), its
// memory fibers, broadcast, and arbitration taps, plus a power/ground/clock
// allocation per cluster.
func EstimateTSVs(clusters int) TSVBudget {
	perClusterSignals := 256 /* xbar modulator data */ +
		256 /* xbar detector data */ +
		2*64 /* memory fiber pair */ +
		2*64 /* broadcast mod+detect */ +
		2*64 /* arbitration inject+detect */
	// Power delivery dominates pgc: a conservative 4 power/ground pairs per
	// signal via region plus clock distribution.
	return TSVBudget{
		SignalTSVs: clusters * perClusterSignals,
		PGCTSVs:    clusters*512 + clusters/4,
	}
}

// Budget is the assembled package-level estimate.
type Budget struct {
	Clusters int
	// Area range across the two core endpoints.
	MinDieAreaMM2, MaxDieAreaMM2 float64
	// Power ranges.
	MinProcessorW, MaxProcessorW float64
	PhotonicW                    float64
	MemoryInterconnectW          float64
	TSVs                         TSVBudget
	PeakTeraflops                float64
}

// Estimate assembles the paper's package budget for a 64-cluster system.
func Estimate(clusters int) Budget {
	p, s := Penryn(), Silverthorne()
	b := Budget{
		Clusters:            clusters,
		MinDieAreaMM2:       minf(p.DieAreaMM2, s.DieAreaMM2),
		MaxDieAreaMM2:       maxf(p.DieAreaMM2, s.DieAreaMM2),
		MinProcessorW:       minf(p.ProcessorPowerW, s.ProcessorPowerW),
		MaxProcessorW:       maxf(p.ProcessorPowerW, s.ProcessorPowerW),
		PhotonicW:           power.PhotonicSubsystemW,
		MemoryInterconnectW: 6.4, // OCM at full 10.24 TB/s (Section 3.3)
		TSVs:                EstimateTSVs(clusters),
		PeakTeraflops:       cluster.PeakSystemTeraflops(clusters),
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TotalPowerRange returns the package's total power band: processor band
// plus photonic subsystem plus memory interconnect.
func (b Budget) TotalPowerRange() (min, max float64) {
	base := b.PhotonicW + b.MemoryInterconnectW
	return b.MinProcessorW + base, b.MaxProcessorW + base
}

// Table renders the stack budget as a report.
func (b Budget) Table() *stats.Table {
	t := stats.NewTable("Quantity", "Estimate")
	t.AddRow("Clusters / cores", fmt.Sprintf("%d / %d", b.Clusters, b.Clusters*cluster.CoresPerCluster))
	t.AddRow("Peak performance", fmt.Sprintf("%.2f teraflops", b.PeakTeraflops))
	t.AddRow("Processor/L1 die area", fmt.Sprintf("%.0f-%.0f mm^2", b.MinDieAreaMM2, b.MaxDieAreaMM2))
	t.AddRow("Processor+cache+MC+hub power", fmt.Sprintf("%.0f-%.0f W", b.MinProcessorW, b.MaxProcessorW))
	t.AddRow("Photonic subsystem power", fmt.Sprintf("%.0f W", b.PhotonicW))
	t.AddRow("Memory interconnect power", fmt.Sprintf("%.1f W", b.MemoryInterconnectW))
	lo, hi := b.TotalPowerRange()
	t.AddRow("Package total power", fmt.Sprintf("%.0f-%.0f W", lo, hi))
	t.AddRow("Signal TSVs", fmt.Sprintf("%d", b.TSVs.SignalTSVs))
	t.AddRow("Power/ground/clock TSVs", fmt.Sprintf("%d", b.TSVs.PGCTSVs))
	t.AddRow("Stack dies", fmt.Sprintf("%d (%s / %s / %s / %s)",
		int(numDies), ProcessorDie, CacheDie, AnalogDie, OpticalDie))
	return t
}
