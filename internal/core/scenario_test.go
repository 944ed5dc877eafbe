package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseScenarioFull(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"configs": [
			{"preset": "XBar/OCM"},
			{"label": "SWMR big-rx", "fabric": "swmr", "mem": "OCM",
			 "params": {"recv_buffer": 32}, "mshrs": 32},
			{"fabric": "hmesh", "mem": "ECM", "hub_latency": 6}
		],
		"workloads": ["Uniform", "FFT"],
		"requests": 1234,
		"seed": 9
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Configs) != 3 || len(sc.Workloads) != 2 || sc.Requests != 1234 || sc.Seed != 9 {
		t.Fatalf("scenario = %+v", sc)
	}
	if sc.Configs[0].Name() != "XBar/OCM" || sc.Configs[1].Name() != "SWMR big-rx" ||
		sc.Configs[2].Name() != "HMesh/ECM" {
		t.Fatalf("names = %s / %s / %s", sc.Configs[0].Name(), sc.Configs[1].Name(), sc.Configs[2].Name())
	}
	if sc.Configs[1].MSHRs != 32 || sc.Configs[1].FabricParams["recv_buffer"] != 32 {
		t.Fatalf("sizing not applied: %+v", sc.Configs[1])
	}
	if sc.Configs[2].HubLatency != 6 || sc.Configs[2].Clusters != 64 {
		t.Fatalf("defaults not filled: %+v", sc.Configs[2])
	}
	if sc.Workloads[1].Name != "FFT" {
		t.Fatalf("workloads = %v", sc.Workloads)
	}
}

func TestParseScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"configs": [{"preset": "LMesh/ECM"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Workloads) != 15 || sc.Requests != 20000 || sc.Seed != 42 {
		t.Fatalf("defaults = %d workloads, %d requests, seed %d", len(sc.Workloads), sc.Requests, sc.Seed)
	}
}

func TestParseScenarioRejections(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"no configs", `{}`, "no configs"},
		{"bad json", `{"configs": [}`, ""},
		{"unknown preset", `{"configs": [{"preset": "Ring/OCM"}]}`, "Ring"},
		{"unknown fabric", `{"configs": [{"fabric": "warp"}]}`, "warp"},
		{"unknown memory", `{"configs": [{"fabric": "xbar", "mem": "DDR"}]}`, "DDR"},
		{"param typo", `{"configs": [{"fabric": "xbar", "params": {"recv_bufer": 4}}]}`, "recv_bufer"},
		{"preset+fabric mix", `{"configs": [{"preset": "XBar/OCM", "fabric": "swmr"}]}`, "mixes"},
		{"unknown workload", `{"configs": [{"preset": "XBar/OCM"}], "workloads": ["Unifrm"]}`, "Unifrm"},
		{"duplicate names", `{"configs": [{"preset": "XBar/OCM"}, {"fabric": "xbar", "params": {"recv_buffer": 4}}]}`, "duplicate"},
		{"bad mesh geometry", `{"configs": [{"fabric": "hmesh", "params": {"width": 5}}]}`, "geometry"},
	}
	for _, c := range cases {
		_, err := ParseScenario([]byte(c.json))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
		// Every scenario rejection is invalid input, and must say so in its
		// type: the server maps *ConfigError to 400, not 500.
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %q is not a *ConfigError", c.name, err)
		}
	}
}

func TestScenarioSweepRuns(t *testing.T) {
	// A JSON-described two-machine matrix runs end to end on the engine and
	// labels its columns with the scenario names.
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(`{
		"configs": [
			{"preset": "XBar/OCM"},
			{"fabric": "swmr", "mem": "OCM"}
		],
		"workloads": ["Uniform"],
		"requests": 400,
		"seed": 3
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	s := sc.Sweep()
	mustSweep(t, NewClient(WithWorkers(2)), s)
	if s.Results[0][0].Config != "XBar/OCM" || s.Results[0][1].Config != "SWMR/OCM" {
		t.Fatalf("columns = %s / %s", s.Results[0][0].Config, s.Results[0][1].Config)
	}
	if s.Results[0][1].NetworkPowerW != 32 {
		t.Errorf("SWMR network power = %v, want 32 W", s.Results[0][1].NetworkPowerW)
	}
	if s.Results[0][1].XBarUtil <= 0 {
		t.Error("SWMR channel utilization not reported through the registry")
	}
	header := s.Figure8().String()
	if !strings.Contains(header, "SWMR/OCM") {
		t.Errorf("Figure 8 header missing SWMR column:\n%s", header)
	}
}

func TestLoadScenarioMissingFile(t *testing.T) {
	if _, err := LoadScenario("/nonexistent/scenario.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzParseScenario feeds arbitrary bytes to ParseScenario. Whatever the
// bytes, it returns either a scenario that holds up (at least one config,
// each valid and uniquely named, at least one workload, a positive request
// count) or a *ConfigError, and never panics. The seeds are the checked-in
// custom-fabric example, a preset-only body, and malformed bodies.
func FuzzParseScenario(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "custom-fabric", "scenario.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(`{"configs": [{"preset": "HMesh/ECM"}]}`))
	f.Add([]byte(`{"configs": [{"fabric": "hmesh", "params": {"width": 4, "height": 4}, "clusters": 16}], "requests": -1}`))
	f.Add([]byte(`{"configs": [}`))
	f.Add([]byte(`{"configs": [{"preset": "XBar/OCM", "fabric": "swmr"}], "seed": -3}`))
	f.Add([]byte(`{"configs": null, "workloads": [7]}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %q is not a *ConfigError", err)
			}
			return
		}
		if len(sc.Configs) == 0 || len(sc.Workloads) == 0 || sc.Requests <= 0 {
			t.Fatalf("accepted an empty scenario: %d configs, %d workloads, %d requests",
				len(sc.Configs), len(sc.Workloads), sc.Requests)
		}
		names := map[string]bool{}
		for _, cfg := range sc.Configs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted config %s fails Validate: %v", cfg.Name(), err)
			}
			if names[cfg.Name()] {
				t.Fatalf("accepted duplicate config name %q", cfg.Name())
			}
			names[cfg.Name()] = true
		}
	})
}
