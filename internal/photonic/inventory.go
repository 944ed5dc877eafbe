package photonic

import (
	"strconv"

	"corona/internal/stats"
)

// Geometry captures the architectural parameters the optical inventory and
// timing derive from (Sections 3.2–3.3).
type Geometry struct {
	Clusters              int // 64
	ChannelWaveguides     int // 4 waveguides bundled per crossbar channel
	WavelengthsPerGuide   int // 64 DWDM wavelengths per waveguide
	MemoryFibersPerMC     int // 2 (a pair of single-waveguide 64-λ links)
	SerpentineCm          int // routed length of one crossbar serpentine
	BroadcastPassCount    int // broadcast coil passes each cluster twice
	ArbitrationWaveguides int // one for the crossbar tokens, one for broadcast
}

// DefaultGeometry returns Corona's published configuration.
func DefaultGeometry() Geometry {
	return Geometry{
		Clusters:              64,
		ChannelWaveguides:     4,
		WavelengthsPerGuide:   64,
		MemoryFibersPerMC:     2,
		SerpentineCm:          16, // 8 clocks of propagation at 2 cm/clock
		BroadcastPassCount:    2,
		ArbitrationWaveguides: 2,
	}
}

// ChannelWavelengths returns the width of one crossbar channel in
// wavelengths (256 for Corona).
func (g Geometry) ChannelWavelengths() int {
	return g.ChannelWaveguides * g.WavelengthsPerGuide
}

// ChannelBytesPerCycle returns the payload a crossbar channel moves per
// 5 GHz cycle with dual-edge modulation: 256 λ × 2 bits / 8 = 64 B.
func (g Geometry) ChannelBytesPerCycle() int {
	return g.ChannelWavelengths() * 2 / 8
}

// MaxPropagationClocks returns the worst-case crossbar propagation time.
func (g Geometry) MaxPropagationClocks() int {
	return Waveguide{LengthCm: float64(g.SerpentineCm)}.PropagationClocks()
}

// SubsystemInventory is one row of Table 2.
type SubsystemInventory struct {
	Name       string
	Waveguides int
	Rings      int
}

// Inventory reproduces Table 2: the optical resource requirements of each
// photonic subsystem (power waveguides and I/O components omitted, as in the
// paper).
func Inventory(g Geometry) []SubsystemInventory {
	chanW := g.ChannelWavelengths()
	// Crossbar: each of the Clusters channels is ChannelWaveguides guides.
	// Every cluster can write every channel (modulator ring per wavelength),
	// and the home cluster reads it (detector ring per wavelength):
	// Clusters channels × Clusters clusters × 256 λ = 1024 K rings.
	xbar := SubsystemInventory{
		Name:       "Crossbar",
		Waveguides: g.Clusters * g.ChannelWaveguides,
		Rings:      g.Clusters * ((g.Clusters-1)*chanW + chanW),
	}
	// Memory: per MC a fiber pair, each 64 λ, with a modulator and detector
	// ring per wavelength on the stack side: 64 MC × 2 × (64+64) = 16 K.
	mem := SubsystemInventory{
		Name:       "Memory",
		Waveguides: g.Clusters * g.MemoryFibersPerMC,
		Rings:      g.Clusters * g.MemoryFibersPerMC * 2 * g.WavelengthsPerGuide,
	}
	// Broadcast: one coiled waveguide; each cluster has 64 modulator rings
	// (first pass) and 64 detector rings on its splitter branch (second
	// pass): 64 × 128 = 8 K.
	bcast := SubsystemInventory{
		Name:       "Broadcast",
		Waveguides: 1,
		Rings:      g.Clusters * 2 * g.WavelengthsPerGuide,
	}
	// Arbitration: two token waveguides; each cluster holds a fixed-λ
	// detector and injector per crossbar channel token: 64 × (64+64) = 8 K.
	arb := SubsystemInventory{
		Name:       "Arbitration",
		Waveguides: g.ArbitrationWaveguides,
		Rings:      g.Clusters * 2 * g.WavelengthsPerGuide,
	}
	// Clock: one distribution waveguide with a detector ring per cluster.
	clock := SubsystemInventory{
		Name:       "Clock",
		Waveguides: 1,
		Rings:      g.Clusters,
	}
	return []SubsystemInventory{mem, xbar, bcast, arb, clock}
}

// InventoryTotal sums an inventory.
func InventoryTotal(inv []SubsystemInventory) SubsystemInventory {
	t := SubsystemInventory{Name: "Total"}
	for _, s := range inv {
		t.Waveguides += s.Waveguides
		t.Rings += s.Rings
	}
	return t
}

// InventoryTable renders Table 2.
func InventoryTable(g Geometry) *stats.Table {
	tab := stats.NewTable("Photonic Subsystem", "Waveguides", "Ring Resonators")
	inv := Inventory(g)
	for _, s := range inv {
		tab.AddRow(s.Name, strconv.Itoa(s.Waveguides), ringCount(s.Rings))
	}
	t := InventoryTotal(inv)
	tab.AddRow(t.Name, strconv.Itoa(t.Waveguides), "~ "+ringCount(t.Rings))
	return tab
}

// ringCount formats a ring count the way the paper does (K = 1024), rounding
// to the nearest K as its "≈ 1056 K" does.
func ringCount(v int) string {
	if v >= 1024 && v%64 == 0 {
		return strconv.Itoa((v+512)/1024) + " K"
	}
	return strconv.Itoa(v)
}
