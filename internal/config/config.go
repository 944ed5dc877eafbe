// Package config describes simulated system configurations declaratively —
// a registered interconnect fabric name plus sizing parameters, a memory
// interconnect, and the cluster/MSHR/hub structure — and reproduces the
// paper's configuration tables (Tables 1, 3, and 4). The five machines of
// Section 4 (XBar/OCM, HMesh/OCM, LMesh/OCM, HMesh/ECM, LMesh/ECM) are
// presets over that scheme, named "<Display>/<Memory>" after a registered
// fabric's display label; arbitrary machines are built with Custom or
// loaded from JSON (core.LoadScenario). See docs/ARCHITECTURE.md.
package config

import (
	"fmt"
	"strings"

	"corona/internal/memory"
	"corona/internal/noc"
	"corona/internal/splash"
	"corona/internal/stats"
	"corona/internal/traffic"

	// The shipped fabric catalog registers itself with the noc registry;
	// these packages are linked here (and only here) for that side effect,
	// so every consumer of a configuration can resolve its fabric by name.
	_ "corona/internal/mesh"
	_ "corona/internal/swmr"
	_ "corona/internal/xbar"
)

// MemoryKind selects the off-stack memory interconnect.
type MemoryKind uint8

// Memory interconnect options (Section 4).
const (
	OCM MemoryKind = iota
	ECM
)

// String names the memory system.
func (m MemoryKind) String() string {
	switch m {
	case OCM:
		return "OCM"
	case ECM:
		return "ECM"
	default:
		return fmt.Sprintf("mem(%d)", uint8(m))
	}
}

// ParseMemoryKind is the inverse of String, rejecting unknown names.
func ParseMemoryKind(s string) (MemoryKind, error) {
	for _, m := range []MemoryKind{OCM, ECM} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("config: unknown memory interconnect %q (valid: OCM, ECM)", s)
}

// System is one simulated configuration, described declaratively: the
// interconnect is a fabric registry name plus a parameter map, never a
// hard-wired type. Everything that shapes a result is in this struct (plus
// the workload), which is why the sweep cache fingerprints its full JSON.
type System struct {
	// Fabric is the registered interconnect name ("xbar", "hmesh", "lmesh",
	// "swmr", or any fabric registered through corona.RegisterFabric).
	Fabric string
	// FabricParams are fabric-specific sizing overrides, keyed by the names
	// the fabric's builder documents; nil selects its published defaults.
	FabricParams map[string]int
	// Mem selects the off-stack memory interconnect.
	Mem MemoryKind
	// Label, when non-empty, overrides Name()'s derived display label —
	// useful when two configurations share a fabric and differ in params.
	Label string

	// Clusters is the cluster count (64).
	Clusters int
	// MSHRs bounds outstanding misses per cluster hub.
	MSHRs int
	// HubLatency is the hub's internal routing latency in cycles, paid by
	// cluster-local transactions in lieu of the network.
	HubLatency int

	// MemOverride replaces the Mem preset's controller parameters; nil
	// selects the published ones.
	MemOverride *memory.Config
}

// Name returns the configuration's display label: Label when set, otherwise
// the fabric's display name and the memory kind, e.g. "XBar/OCM".
func (s System) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return noc.DisplayName(s.Fabric) + "/" + s.Mem.String()
}

// Params assembles the noc.FabricParams the fabric builder receives.
func (s System) Params() noc.FabricParams {
	return noc.FabricParams{Clusters: s.Clusters, Params: s.FabricParams}
}

// Validate checks that the fabric is registered and accepts the parameters,
// and that a memory override describes a buildable controller, without
// building anything — the cheap pre-flight for CLIs and config
// loaders.
func (s System) Validate() error {
	fab, ok := noc.Lookup(s.Fabric)
	if !ok {
		return fmt.Errorf("config: %s: unknown fabric %q (registered: %v)", s.Name(), s.Fabric, noc.Names())
	}
	if s.Clusters <= 0 || s.MSHRs <= 0 || s.HubLatency <= 0 {
		return fmt.Errorf("config: %s: non-positive structural parameter (clusters=%d mshrs=%d hub_latency=%d)",
			s.Name(), s.Clusters, s.MSHRs, s.HubLatency)
	}
	if fab.Check != nil {
		if err := fab.Check(s.Params()); err != nil {
			return fmt.Errorf("config: %s: %w", s.Name(), err)
		}
	}
	if s.MemOverride != nil {
		if err := s.MemOverride.Validate(); err != nil {
			return fmt.Errorf("config: %s: %w", s.Name(), err)
		}
	}
	return nil
}

// Custom returns a declarative System for any registered fabric, with the
// paper's structural defaults (64 clusters, 64 MSHRs, 4-cycle hub). The
// label may be empty to derive one from the fabric and memory names.
func Custom(label, fabric string, mem MemoryKind, params map[string]int) System {
	return System{
		Fabric: fabric, FabricParams: params, Mem: mem, Label: label,
		Clusters: 64, MSHRs: 64, HubLatency: 4,
	}
}

// Corona returns the flagship XBar/OCM configuration.
func Corona() System { return Custom("", "xbar", OCM, nil) }

// Combos returns the five simulated configurations in the paper's
// baseline-first order (Figure 8's legend order).
func Combos() []System {
	return []System{
		Custom("", "lmesh", ECM, nil),
		Custom("", "hmesh", ECM, nil),
		Custom("", "lmesh", OCM, nil),
		Custom("", "hmesh", OCM, nil),
		Corona(),
	}
}

// ParseName resolves a preset label "<Display>/<Memory>", e.g. "XBar/OCM"
// or "SWMR/ECM", where Display is any registered fabric's display label:
// a fabric registered at startup gets preset names with no code change.
func ParseName(name string) (System, error) {
	label, memName, ok := strings.Cut(name, "/")
	if !ok {
		return System{}, fmt.Errorf("config: preset %q is not of the form Network/Memory (e.g. XBar/OCM)", name)
	}
	mem, err := ParseMemoryKind(memName)
	if err != nil {
		return System{}, fmt.Errorf("preset %q: %w", name, err)
	}
	fabric, ok := noc.ByLabel(label)
	if !ok {
		return System{}, fmt.Errorf("preset %q: config: unknown network %q (registered: %s)",
			name, label, strings.Join(noc.Labels(), ", "))
	}
	return Custom("", fabric, mem, nil), nil
}

// MemConfig returns the per-controller memory configuration.
func (s System) MemConfig() memory.Config {
	if s.MemOverride != nil {
		return *s.MemOverride
	}
	if s.Mem == OCM {
		return memory.OCMConfig()
	}
	return memory.ECMConfig()
}

// FabricCatalog renders the registered fabrics with their analytic
// metadata (noc.Catalog) — the at-a-glance design-space table the registry
// opens up beyond the five fixed machines.
func FabricCatalog() *stats.Table {
	t := stats.NewTable("Fabric", "Label", "Bisection (TB/s)", "Min transit (cycles)", "Description")
	for _, e := range noc.Catalog() {
		bisection, transit := "-", "-"
		if e.BisectionTBs > 0 {
			bisection = fmt.Sprintf("%.2f", e.BisectionTBs)
		}
		if e.MinTransitCycles > 0 {
			transit = fmt.Sprintf("%d", e.MinTransitCycles)
		}
		t.AddRow(e.Name, e.Display, bisection, transit, e.Description)
	}
	return t
}

// Table1 reproduces the paper's resource configuration table.
func Table1() *stats.Table {
	t := stats.NewTable("Resource", "Value")
	rows := [][2]string{
		{"Number of clusters", "64"},
		{"Per-Cluster:", ""},
		{"  L2 cache size/assoc", "4 MB/16-way"},
		{"  L2 cache line size", "64 B"},
		{"  L2 coherence", "MOESI"},
		{"  Memory controllers", "1"},
		{"  Cores", "4"},
		{"Per-Core:", ""},
		{"  L1 ICache size/assoc", "16 KB/4-way"},
		{"  L1 DCache size/assoc", "32 KB/4-way"},
		{"  L1 I & D cache line size", "64 B"},
		{"  Frequency", "5 GHz"},
		{"  Threads", "4"},
		{"  Issue policy", "In-order"},
		{"  Issue width", "2"},
		{"  64 b floating point SIMD width", "4"},
		{"  Fused floating point operations", "Multiply-Add"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t
}

// Table3 reproduces the benchmark setup table.
func Table3() *stats.Table {
	t := stats.NewTable("Benchmark", "Data Set (Default)", "Network Requests")
	for _, s := range traffic.Synthetic() {
		t.AddRow(s.Name, "-", fmt.Sprintf("%d M", s.DefaultRequests/1_000_000))
	}
	for _, a := range splash.Apps() {
		t.AddRow(a.Spec.Name,
			fmt.Sprintf("%s (%s)", a.Dataset, a.DefaultDataset),
			formatMillions(a.Spec.DefaultRequests))
	}
	return t
}

func formatMillions(n int) string {
	return fmt.Sprintf("%.1f M", float64(n)/1e6)
}

// Table4 reproduces the optical-vs-electrical memory interconnect table.
func Table4() *stats.Table {
	ocm, ecm := memory.OCMConfig(), memory.ECMConfig()
	t := stats.NewTable("Resource", "OCM", "ECM")
	t.AddRow("Memory controllers", "64", "64")
	t.AddRow("External connectivity", "256 fibers", "1536 pins")
	t.AddRow("Channel width", "128 b half duplex", "12 b full duplex")
	t.AddRow("Channel data rate", "10 Gb/s", "10 Gb/s")
	t.AddRow("Memory bandwidth",
		fmt.Sprintf("%.2f TB/s", ocm.AggregateBytesPerSec(64)/1e12),
		fmt.Sprintf("%.2f TB/s", ecm.AggregateBytesPerSec(64)/1e12))
	t.AddRow("Memory latency", "20 ns", "20 ns")
	return t
}
