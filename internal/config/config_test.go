package config

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"corona/internal/noc"
	"corona/internal/sim"
)

func TestFiveCombos(t *testing.T) {
	combos := Combos()
	if len(combos) != 5 {
		t.Fatalf("combos = %d, want 5", len(combos))
	}
	names := make([]string, len(combos))
	for i, c := range combos {
		names[i] = c.Name()
	}
	want := []string{"LMesh/ECM", "HMesh/ECM", "LMesh/OCM", "HMesh/OCM", "XBar/OCM"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("combos = %v, want %v", names, want)
		}
	}
	if names[0] != "LMesh/ECM" {
		t.Error("the baseline (speedup = 1) must come first")
	}
}

func TestCoronaIsXBarOCM(t *testing.T) {
	c := Corona()
	if c.Name() != "XBar/OCM" {
		t.Fatalf("Corona() = %s", c.Name())
	}
	if c.Clusters != 64 || c.MSHRs <= 0 || c.HubLatency <= 0 {
		t.Errorf("Corona defaults incomplete: %+v", c)
	}
}

func TestSubConfigAccessors(t *testing.T) {
	fabrics := []string{"lmesh", "hmesh", "lmesh", "hmesh", "xbar"}
	for i, c := range Combos() {
		if c.Fabric != fabrics[i] {
			t.Errorf("%s fabric = %q, want %q", c.Name(), c.Fabric, fabrics[i])
		}
	}
	if Custom("", "hmesh", OCM, nil).MemConfig().Name != "ocm" {
		t.Error("OCM config wrong")
	}
	if Custom("", "hmesh", ECM, nil).MemConfig().Name != "ecm" {
		t.Error("ECM config wrong")
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, c := range Combos() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
	if err := Custom("", "swmr", OCM, nil).Validate(); err != nil {
		t.Errorf("SWMR/OCM: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	if err := Custom("", "warp-bus", OCM, nil).Validate(); err == nil ||
		!strings.Contains(err.Error(), "warp-bus") {
		t.Errorf("unknown fabric not rejected: %v", err)
	}
	typo := Custom("", "xbar", OCM, map[string]int{"recv_bufer": 4})
	if err := typo.Validate(); err == nil || !strings.Contains(err.Error(), "recv_bufer") {
		t.Errorf("param typo not rejected: %v", err)
	}
	zero := Corona()
	zero.Clusters = 0
	if err := zero.Validate(); err == nil {
		t.Error("zero clusters not rejected")
	}
}

func TestCustomLabelAndName(t *testing.T) {
	c := Custom("BigBuf", "xbar", OCM, map[string]int{"recv_buffer": 64})
	if c.Name() != "BigBuf" {
		t.Errorf("label not honoured: %s", c.Name())
	}
	if Custom("", "swmr", OCM, nil).Name() != "SWMR/OCM" {
		t.Errorf("derived name wrong: %s", Custom("", "swmr", OCM, nil).Name())
	}
	// Unregistered fabrics degrade to the raw name, never panic.
	if got := Custom("", "mystery", ECM, nil).Name(); got != "mystery/ECM" {
		t.Errorf("unregistered fabric name = %s", got)
	}
}

func TestParseKindsRoundTrip(t *testing.T) {
	for _, m := range []MemoryKind{OCM, ECM} {
		got, err := ParseMemoryKind(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMemoryKind(%s) = %v, %v", m, got, err)
		}
	}
	// Every registered fabric's presets round-trip through their names.
	for _, name := range noc.Names() {
		for _, mem := range []MemoryKind{OCM, ECM} {
			c := Custom("", name, mem, nil)
			got, err := ParseName(c.Name())
			if err != nil || !reflect.DeepEqual(got, c) {
				t.Errorf("ParseName(%s) = %+v, %v, want %+v", c.Name(), got, err, c)
			}
		}
	}
	if _, err := ParseName("Xbar/OCM"); err == nil ||
		!strings.Contains(err.Error(), "HMesh, LMesh, SWMR, XBar") {
		t.Errorf("case typo must fail with the registered labels listed: %v", err)
	}
	if _, err := ParseMemoryKind("ocm"); err == nil {
		t.Error("lower-case memory name must fail (String round-trip only)")
	}
}

func TestParseName(t *testing.T) {
	for _, want := range []string{"XBar/OCM", "LMesh/ECM", "SWMR/OCM"} {
		c, err := ParseName(want)
		if err != nil {
			t.Fatalf("ParseName(%s): %v", want, err)
		}
		if c.Name() != want {
			t.Errorf("ParseName(%s).Name() = %s", want, c.Name())
		}
		if err := c.Validate(); err != nil {
			t.Errorf("ParseName(%s) invalid: %v", want, err)
		}
	}
	for _, bad := range []string{"XBar", "XBar/OCM/extra", "Ring/OCM", "XBar/DDR"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%s) accepted", bad)
		}
	}
}

func TestTable1Contents(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"64", "MOESI", "4 MB/16-way", "5 GHz", "In-order", "Multiply-Add"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable3Contents(t *testing.T) {
	s := Table3().String()
	for _, want := range []string{"Uniform", "Hot Spot", "Barnes", "Water-Sp", "tk29.O", "240.0 M"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestTable4Contents(t *testing.T) {
	s := Table4().String()
	for _, want := range []string{"256 fibers", "1536 pins", "10.24 TB/s", "0.96 TB/s", "20 ns", "128 b half duplex"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

func TestFabricCatalog(t *testing.T) {
	s := FabricCatalog().String()
	for _, want := range []string{"xbar", "hmesh", "lmesh", "swmr", "20.48", "1.28", "0.64"} {
		if !strings.Contains(s, want) {
			t.Errorf("fabric catalog missing %q:\n%s", want, s)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if OCM.String() != "OCM" || ECM.String() != "ECM" {
		t.Error("memory names wrong")
	}
	if !strings.HasPrefix(MemoryKind(9).String(), "mem(") {
		t.Error("unknown kinds should format numerically")
	}
}

// TestFabricParamValidation drives every built-in fabric's parameter table
// through Validate and Build: an unknown key is rejected by name along with
// the exact list of accepted keys, every accepted key rejects 0 and -1, and
// a positive override reaches the built network's configuration.
func TestFabricParamValidation(t *testing.T) {
	crossbar := map[string]string{ // key -> Config field
		"bytes_per_cycle": "BytesPerCycle", "inject_queue": "InjectQueue", "recv_buffer": "RecvBuffer"}
	mesh := map[string]string{
		"width": "Width", "height": "Height", "bytes_per_cycle": "BytesPerCycle", "hop_latency": "HopLatency",
		"link_buffer": "LinkBuffer", "inject_queue": "InjectQueue", "recv_buffer": "RecvBuffer"}
	fabrics := map[string]map[string]string{
		"xbar":  with(crossbar, "token_speed", "TokenSpeed"),
		"swmr":  with(crossbar, "prop_speed", "PropSpeed"),
		"hmesh": mesh,
		"lmesh": mesh,
	}
	for _, fabric := range sortedKeys(fabrics) {
		keys := fabrics[fabric]
		valid := sortedKeys(keys)
		err := Custom("", fabric, OCM, map[string]int{"recv_bufer": 4}).Validate()
		if err == nil || !strings.Contains(err.Error(), `"recv_bufer"`) ||
			!strings.Contains(err.Error(), fmt.Sprint(valid)) {
			t.Errorf("%s: unknown key error = %v, want it to name the key and list %v", fabric, err, valid)
		}
		for _, key := range valid {
			field := keys[key]
			for _, bad := range []int{0, -1} {
				if err := Custom("", fabric, OCM, map[string]int{key: bad}).Validate(); err == nil ||
					!strings.Contains(err.Error(), key) {
					t.Errorf("%s: %s=%d not rejected by name: %v", fabric, key, bad, err)
				}
			}
			params := map[string]int{key: 2}
			switch key { // the mesh geometry must still hold 64 routers
			case "width":
				params["height"] = 32
			case "height":
				params["width"] = 32
			}
			cfg := Custom("", fabric, OCM, params)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %s=2 rejected: %v", fabric, key, err)
				continue
			}
			fab, _ := noc.Lookup(fabric)
			net, err := fab.Build(sim.NewKernel(), cfg.Params())
			if err != nil {
				t.Fatalf("%s: build with %s=2: %v", fabric, key, err)
			}
			got := reflect.ValueOf(net).Elem().FieldByName("cfg").FieldByName(field)
			if fmt.Sprint(got) != "2" {
				t.Errorf("%s: %s=2 built a network with %s = %v", fabric, key, field, got)
			}
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// with returns keys plus one more key -> field entry.
func with(keys map[string]string, key, field string) map[string]string {
	out := map[string]string{key: field}
	for k, f := range keys {
		out[k] = f
	}
	return out
}

// TestValidateAllocatesNothing pins the pre-flight's cost: resolving a
// preset's parameters through its fabric's key table allocates nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, c := range append(Combos(), Custom("", "swmr", OCM, nil)) {
		if allocs := testing.AllocsPerRun(20, func() { _ = c.Validate() }); allocs != 0 {
			t.Errorf("%s: Validate allocates %v times per call, want 0", c.Name(), allocs)
		}
	}
}
