package core

import (
	"encoding/json"
	"fmt"
	"os"

	"corona/internal/config"
	"corona/internal/traffic"
)

// Scenario is a fully resolved experiment description: which machines, which
// workloads, how many requests per cell, at what base seed. It is what a
// JSON config file parses into, and what NewMatrixSweep consumes — the
// bridge that makes new machines runnable without recompiling.
type Scenario struct {
	Configs   []config.System
	Workloads []traffic.Spec
	Requests  int
	Seed      uint64
}

// Sweep prepares the scenario's matrix on the sweep engine.
func (sc *Scenario) Sweep() *Sweep {
	return NewMatrixSweep(sc.Configs, sc.Workloads, sc.Requests, sc.Seed)
}

// scenarioFile is the JSON schema of a -config file:
//
//	{
//	  "configs": [
//	    {"preset": "XBar/OCM"},
//	    {"label": "SWMR/OCM", "fabric": "swmr", "mem": "OCM",
//	     "params": {"recv_buffer": 16}, "mshrs": 64}
//	  ],
//	  "workloads": ["Uniform", "FFT"],   // omit for all fifteen
//	  "requests": 20000,                 // omit for the 20000 default
//	  "seed": 42                         // omit for 42
//	}
type scenarioFile struct {
	Configs   []scenarioConfig `json:"configs"`
	Workloads []string         `json:"workloads"`
	Requests  int              `json:"requests"`
	Seed      *uint64          `json:"seed"`
}

// scenarioConfig describes one machine: either a preset label
// ("<Display>/<Memory>" over any registered fabric, config.ParseName), or a
// declarative fabric + memory description with optional structural sizing.
// Omitted structural fields take the paper's defaults (64 clusters,
// 64 MSHRs, 4-cycle hub).
type scenarioConfig struct {
	Preset     string         `json:"preset"`
	Label      string         `json:"label"`
	Fabric     string         `json:"fabric"`
	Mem        string         `json:"mem"`
	Params     map[string]int `json:"params"`
	Clusters   int            `json:"clusters"`
	MSHRs      int            `json:"mshrs"`
	HubLatency int            `json:"hub_latency"`
}

// resolve turns one scenario entry into a validated config.System.
func (e scenarioConfig) resolve(i int) (config.System, error) {
	if e.Preset != "" {
		if e.Fabric != "" || e.Mem != "" || e.Params != nil {
			return config.System{}, fmt.Errorf("config %d: %q mixes preset with fabric/mem/params; use one or the other", i, e.Preset)
		}
		cfg, err := config.ParseName(e.Preset)
		if err != nil {
			return config.System{}, fmt.Errorf("config %d: %w", i, err)
		}
		if e.Label != "" {
			cfg.Label = e.Label
		}
		return applySizing(cfg, e), nil
	}
	if e.Fabric == "" {
		return config.System{}, fmt.Errorf("config %d: needs either \"preset\" or \"fabric\"", i)
	}
	mem := config.OCM
	if e.Mem != "" {
		var err error
		if mem, err = config.ParseMemoryKind(e.Mem); err != nil {
			return config.System{}, fmt.Errorf("config %d: %w", i, err)
		}
	}
	return applySizing(config.Custom(e.Label, e.Fabric, mem, e.Params), e), nil
}

func applySizing(cfg config.System, e scenarioConfig) config.System {
	if e.Clusters > 0 {
		cfg.Clusters = e.Clusters
	}
	if e.MSHRs > 0 {
		cfg.MSHRs = e.MSHRs
	}
	if e.HubLatency > 0 {
		cfg.HubLatency = e.HubLatency
	}
	return cfg
}

// FindWorkload resolves a Table 3 workload by name.
func FindWorkload(name string) (traffic.Spec, bool) {
	for _, w := range AllWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return traffic.Spec{}, false
}

// workloadNames lists the valid Table 3 names for error messages.
func workloadNames() []string {
	all := AllWorkloads()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// ParseScenario parses and fully validates a JSON scenario: every config
// resolves against the fabric registry (parameter typos rejected), every
// workload name must be a Table 3 name, and defaults (all workloads,
// 20000 requests, seed 42) fill the omitted fields. Every rejection is a
// *ConfigError — invalid input, never an internal failure — so servers and
// CLIs can map it to "fix your request" without string matching.
func ParseScenario(data []byte) (*Scenario, error) {
	badInput := func(name string, err error) error {
		return &ConfigError{Name: name, Err: err}
	}
	var f scenarioFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, badInput("scenario", fmt.Errorf("scenario: %w", err))
	}
	if len(f.Configs) == 0 {
		return nil, badInput("scenario", fmt.Errorf("scenario: no configs"))
	}
	sc := &Scenario{Requests: 20000, Seed: 42}
	if f.Requests > 0 {
		sc.Requests = f.Requests
	}
	if f.Seed != nil {
		sc.Seed = *f.Seed
	}
	seen := map[string]bool{}
	for i, e := range f.Configs {
		cfg, err := e.resolve(i)
		if err != nil {
			return nil, badInput(fmt.Sprintf("config %d", i), fmt.Errorf("scenario: %w", err))
		}
		if err := cfg.Validate(); err != nil {
			return nil, badInput(cfg.Name(), fmt.Errorf("scenario: config %d: %w", i, err))
		}
		if seen[cfg.Name()] {
			return nil, badInput(cfg.Name(),
				fmt.Errorf("scenario: duplicate config name %q (give one a distinct \"label\")", cfg.Name()))
		}
		seen[cfg.Name()] = true
		sc.Configs = append(sc.Configs, cfg)
	}
	if len(f.Workloads) == 0 {
		sc.Workloads = AllWorkloads()
	} else {
		for _, name := range f.Workloads {
			spec, ok := FindWorkload(name)
			if !ok {
				return nil, badInput(name,
					fmt.Errorf("scenario: unknown workload %q (valid: %v)", name, workloadNames()))
			}
			sc.Workloads = append(sc.Workloads, spec)
		}
	}
	return sc, nil
}

// LoadScenario reads and parses a JSON scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}
