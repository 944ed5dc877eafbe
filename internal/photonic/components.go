// Package photonic derives what Corona's architecture needs from the
// nanophotonic devices of Section 2 of the paper, at the analytic level:
// device counts (Table 2), optical loss/laser power budgets, ring yield,
// and propagation timing. Waveguides and splitters are modelled as types;
// ring resonators, comb lasers and the optical clock enter only through
// the constants below and the geometry's 8-clock serpentine.
//
// No electromagnetic simulation is performed; the paper itself treats these
// devices through a handful of constants (2–3 dB/cm waveguide loss, 10 Gb/s
// per wavelength, 64-wavelength combs, 2 cm of waveguide per 5 GHz clock),
// and those constants are what the interconnect models consume.
package photonic

// Physical and architectural constants from Sections 2–3 of the paper.
const (
	// WavelengthsPerComb is the number of DWDM wavelengths one on-stack
	// mode-locked laser provides.
	WavelengthsPerComb = 64
	// DataRateGbps is the per-wavelength signalling rate (dual-edge 5 GHz).
	DataRateGbps = 10.0
	// WaveguideCmPerClock is how far light travels in silicon waveguide in
	// one 5 GHz clock cycle.
	WaveguideCmPerClock = 2.0
	// WaveguideLossDBPerCm is the propagation loss of a demonstrated-today
	// SOI waveguide (the paper quotes 2–3 dB/cm).
	WaveguideLossDBPerCm = 2.5
	// InterconnectLossDBPerCm is the loss of the low-loss ridge waveguide the
	// chip-scale serpentine requires: at 2.5 dB/cm a 16 cm serpentine alone
	// costs 40 dB and no practical laser closes the budget, so Corona-class
	// designs (and the follow-on literature) assume ~0.3 dB/cm for the long
	// on-stack runs. The budget functions use this figure for the crossbar.
	InterconnectLossDBPerCm = 0.3
	// RingThroughLossDB is the insertion loss an off-resonance ring imposes
	// on wavelengths passing it.
	RingThroughLossDB = 0.01
	// SplitterExcessLossDB is the excess (non-split) loss of a broadband
	// splitter.
	SplitterExcessLossDB = 0.1
	// DetectorSensitivityDBm is the minimum optical power a ring-resonator
	// SiGe detector needs (its ~1 fF capacitance removes the TIA).
	DetectorSensitivityDBm = -20.0
	// ModulatorInsertionLossDB is the loss of an active modulator pass.
	ModulatorInsertionLossDB = 0.5
	// CouplerLossDB is the fiber-to-stack coupling loss for off-stack links.
	CouplerLossDB = 1.0
)

// Waveguide is a length of on-stack silicon waveguide.
type Waveguide struct {
	// LengthCm is the routed length.
	LengthCm float64
	// Rings is the number of ring resonators coupled along it (their
	// through-loss accumulates for every wavelength passing them).
	Rings int
	// LossDBPerCm overrides the propagation loss; zero selects the
	// demonstrated-today WaveguideLossDBPerCm.
	LossDBPerCm float64
}

// PropagationClocks returns the time in 5 GHz clocks for light to traverse
// the waveguide, rounded up.
func (w Waveguide) PropagationClocks() int {
	c := w.LengthCm / WaveguideCmPerClock
	n := int(c)
	if float64(n) < c {
		n++
	}
	return n
}

// LossDB returns the total optical loss along the waveguide in dB:
// propagation plus the through loss of its rings.
func (w Waveguide) LossDB() float64 {
	perCm := w.LossDBPerCm
	if perCm == 0 {
		perCm = WaveguideLossDBPerCm
	}
	return w.LengthCm*perCm + float64(w.Rings)*RingThroughLossDB
}

// Splitter is a broadband splitter diverting Tap of the incoming power of
// all wavelengths onto a branch waveguide (Section 2's final component).
type Splitter struct {
	Tap float64 // fraction diverted, in (0,1)
}

// BranchLossDB is the loss seen by the diverted branch relative to input.
func (s Splitter) BranchLossDB() float64 {
	return SplitterExcessLossDB + fractionToDB(s.Tap)
}
