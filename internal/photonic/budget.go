package photonic

import (
	"fmt"
	"math"
)

func fractionToDB(f float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(f)
}

// LinkBudget is an optical power budget for one wavelength over one path.
type LinkBudget struct {
	Name           string
	LaunchDBm      float64 // laser power per wavelength at the source
	Segments       []BudgetSegment
	SensitivityDBm float64 // detector requirement
}

// BudgetSegment is one loss contribution along a light path.
type BudgetSegment struct {
	Name   string
	LossDB float64
}

// Add appends a loss segment.
func (b *LinkBudget) Add(name string, lossDB float64) {
	b.Segments = append(b.Segments, BudgetSegment{Name: name, LossDB: lossDB})
}

// TotalLossDB sums all segment losses.
func (b *LinkBudget) TotalLossDB() float64 {
	var sum float64
	for _, s := range b.Segments {
		sum += s.LossDB
	}
	return sum
}

// ReceivedDBm is the power arriving at the detector.
func (b *LinkBudget) ReceivedDBm() float64 { return b.LaunchDBm - b.TotalLossDB() }

// MarginDB is received power minus detector sensitivity; the link closes when
// the margin is non-negative.
func (b *LinkBudget) MarginDB() float64 { return b.ReceivedDBm() - b.SensitivityDBm }

// Closes reports whether the link budget closes.
func (b *LinkBudget) Closes() bool { return b.MarginDB() >= 0 }

// String renders the budget as a small report.
func (b *LinkBudget) String() string {
	s := fmt.Sprintf("%s: launch %.1f dBm", b.Name, b.LaunchDBm)
	for _, seg := range b.Segments {
		s += fmt.Sprintf("\n  -%.2f dB  %s", seg.LossDB, seg.Name)
	}
	s += fmt.Sprintf("\n  received %.2f dBm, sensitivity %.1f dBm, margin %.2f dB",
		b.ReceivedDBm(), b.SensitivityDBm, b.MarginDB())
	return s
}

// CrossbarWorstCaseBudget builds the budget for the longest crossbar path: a
// wavelength sourced at a channel's home splitter, travelling the full
// serpentine past every other cluster's (off-resonance) modulator banks, and
// terminating in the home detectors.
func CrossbarWorstCaseBudget(launchDBm float64) *LinkBudget {
	geom := DefaultGeometry()
	b := &LinkBudget{
		Name:           "crossbar worst-case channel",
		LaunchDBm:      launchDBm,
		SensitivityDBm: DetectorSensitivityDBm,
	}
	b.Add("home power splitter", Splitter{Tap: 1.0 / float64(geom.Clusters)}.BranchLossDB())
	wg := Waveguide{
		LengthCm: float64(geom.SerpentineCm),
		// Every non-home cluster has one modulator ring per wavelength on
		// this waveguide; only the matching-wavelength rings add through
		// loss for our wavelength, one per cluster.
		Rings:       geom.Clusters - 1,
		LossDBPerCm: InterconnectLossDBPerCm,
	}
	b.Add("serpentine waveguide", wg.LossDB())
	b.Add("active modulator", ModulatorInsertionLossDB)
	return b
}

// OCMBudget builds the budget for an optically connected memory link through
// nModules daisy-chained OCMs and back (Figure 6c): fiber out, through each
// module's off-resonance rings, loop back.
func OCMBudget(launchDBm float64, nModules int) *LinkBudget {
	b := &LinkBudget{
		Name:           fmt.Sprintf("OCM loop through %d modules", nModules),
		LaunchDBm:      launchDBm,
		SensitivityDBm: DetectorSensitivityDBm,
	}
	b.Add("stack-to-fiber coupler", CouplerLossDB)
	for i := 0; i < nModules; i++ {
		b.Add(fmt.Sprintf("OCM %d pass-through", i), 2*CouplerLossDB+float64(WavelengthsPerComb)*RingThroughLossDB)
	}
	b.Add("fiber-to-stack coupler", CouplerLossDB)
	return b
}

// MaxOCMModules returns the largest daisy-chain depth whose budget closes at
// the given launch power with the given margin. Expansion "adds only
// modulators and detectors and not lasers" (Section 3.3), so depth is bounded
// by the optical budget, which this function quantifies.
func MaxOCMModules(launchDBm, marginDB float64) int {
	n := 0
	for {
		b := OCMBudget(launchDBm, n+1)
		if b.MarginDB() < marginDB {
			return n
		}
		n++
		if n > 1024 {
			return n
		}
	}
}
