package noc

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"corona/internal/sim"
)

// FabricParams is the generic sizing input a fabric builder receives: the
// endpoint count the system requires plus fabric-specific integer overrides.
// A nil (or empty) Params map selects the fabric's published defaults;
// builders resolve overrides through Apply, which rejects unknown keys with
// a descriptive error, so a typo in a JSON config fails loudly instead of
// silently simulating the default.
type FabricParams struct {
	// Clusters is the number of network endpoints the system will attach.
	Clusters int
	// Params holds fabric-specific sizing overrides, keyed by the names each
	// builder declares (e.g. "bytes_per_cycle", "recv_buffer").
	Params map[string]int
}

// Param binds one parameter key a fabric accepts to the configuration field
// an override of it sets.
type Param struct {
	Key   string
	Field *int
}

// Apply is the one resolver every fabric builder calls with its key table:
// it sets the bound field of each overridden key, rejecting a key outside
// the table and a non-positive value. Fields whose keys are absent keep
// their defaults. The error paths copy the keys they report, so the table
// does not escape and the caller's configuration stays on its stack.
func (p FabricParams) Apply(fabric string, params ...Param) error {
	set := 0
	for _, q := range params {
		v, ok := p.Params[q.Key]
		if !ok {
			continue
		}
		if v <= 0 {
			return fmt.Errorf("noc: fabric %q parameter %q must be positive, got %d", fabric, strings.Clone(q.Key), v)
		}
		*q.Field = v
		set++
	}
	if set < len(p.Params) {
		return unknownParam(fabric, p.Params, params)
	}
	return nil
}

// unknownParam names the first key of given, in sorted order, that params
// does not declare.
func unknownParam(fabric string, given map[string]int, params []Param) error {
	valid := make([]string, len(params))
	for i, q := range params {
		valid[i] = strings.Clone(q.Key)
	}
	sort.Strings(valid)
	var unknown []string
	for k := range given {
		if i := sort.SearchStrings(valid, k); i == len(valid) || valid[i] != k {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	return fmt.Errorf("noc: fabric %q has no parameter %q (valid: %v)", fabric, unknown[0], valid)
}

// BuildFunc constructs a fabric's network model on kernel k.
type BuildFunc func(k *sim.Kernel, p FabricParams) (Network, error)

// Fabric describes one registered interconnect: how to build it, how to
// label it, and the analytic metadata the experiment layer reports without
// simulating (bisection bandwidth, transit latency, power). Everything
// the core system assembly needs flows through this descriptor, so adding a
// topology never touches package core — see docs/ARCHITECTURE.md for the
// walkthrough.
type Fabric struct {
	// Name is the registry key, by convention lower-case ("xbar", "hmesh").
	Name string
	// Display is the label fragment used in configuration names ("XBar" in
	// "XBar/OCM") and unique among registered fabrics. Register sets it to
	// Name when empty.
	Display string
	// Description is a one-line summary for catalogs and error messages.
	Description string

	// Build constructs the network. Required.
	Build BuildFunc
	// Check validates params without building (used by config loaders to
	// reject bad files before any simulation starts). Optional; builders
	// whose constructors are cheap may leave it nil and rely on Build.
	Check func(p FabricParams) error

	// BisectionTBs is the analytic bisection bandwidth at the published
	// defaults (64 clusters), in TB/s. Zero when not stated.
	BisectionTBs float64
	// MinTransitCycles is the best-case endpoint-to-endpoint transit latency
	// in cycles (analytic, uncontended). Zero when not stated.
	MinTransitCycles sim.Time

	// PowerW returns the on-chip network power of a finished run from the
	// network's counters and the elapsed simulated time (Figure 11's model).
	// Optional; nil reports zero.
	PowerW func(st Stats, elapsed sim.Time) float64
}

// registry is the process-wide fabric catalog, indexed by name and by
// display label. Built-in fabrics register from init (package config imports
// them for side effect); user fabrics register through the corona façade at
// startup. Reads vastly outnumber writes, hence the RWMutex.
var registry = struct {
	sync.RWMutex
	fabrics map[string]Fabric
	labels  map[string]string // display label -> name
}{fabrics: map[string]Fabric{}, labels: map[string]string{}}

// Register adds f to the fabric catalog. It panics on an empty name, a nil
// builder, or a duplicate name or display label — all programmer errors
// that should fail at startup, not mid-sweep. The display label names the
// fabric's presets ("<Display>/OCM"), hence it must be unique too.
func Register(f Fabric) {
	if f.Name == "" {
		panic("noc: Register with empty fabric name")
	}
	if f.Build == nil {
		panic(fmt.Sprintf("noc: fabric %q registered without a builder", f.Name))
	}
	if f.Display == "" {
		f.Display = f.Name
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.fabrics[f.Name]; dup {
		panic(fmt.Sprintf("noc: fabric %q registered twice", f.Name))
	}
	if other, dup := registry.labels[f.Display]; dup {
		panic(fmt.Sprintf("noc: fabric %q reuses display label %q of fabric %q", f.Name, f.Display, other))
	}
	registry.fabrics[f.Name] = f
	registry.labels[f.Display] = f.Name
}

// Lookup returns the fabric registered under name.
func Lookup(name string) (Fabric, bool) {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.fabrics[name]
	return f, ok
}

// ByLabel returns the name of the fabric whose display label is label.
func ByLabel(label string) (string, bool) {
	registry.RLock()
	defer registry.RUnlock()
	name, ok := registry.labels[label]
	return name, ok
}

// DisplayName returns the registered display label for name, or name itself
// when unregistered (so configuration labels degrade gracefully).
func DisplayName(name string) string {
	if f, ok := Lookup(name); ok {
		return f.Display
	}
	return name
}

// Names returns the registered fabric names, sorted.
func Names() []string { return sortedKeys(registry.fabrics) }

// Labels returns the registered display labels, sorted.
func Labels() []string { return sortedKeys(registry.labels) }

func sortedKeys[V any](m map[string]V) []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CatalogEntry is one registered fabric's row of the interconnect catalog:
// its analytic metadata at the paper's 64-cluster scale, in the JSON shape
// GET /v1/fabrics serves. Zero values mean "not stated".
type CatalogEntry struct {
	Name             string  `json:"name"`
	Display          string  `json:"display"`
	Description      string  `json:"description,omitempty"`
	BisectionTBs     float64 `json:"bisection_tbs,omitempty"`
	MinTransitCycles uint64  `json:"min_transit_cycles,omitempty"`
}

// Catalog returns one entry per registered fabric, sorted by name.
func Catalog() []CatalogEntry {
	names := Names()
	out := make([]CatalogEntry, 0, len(names))
	for _, name := range names {
		f, _ := Lookup(name)
		out = append(out, CatalogEntry{
			Name:             name,
			Display:          f.Display,
			Description:      f.Description,
			BisectionTBs:     f.BisectionTBs,
			MinTransitCycles: uint64(f.MinTransitCycles),
		})
	}
	return out
}
