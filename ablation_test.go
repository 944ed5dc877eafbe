package corona

// Ablation benches: quantify the design choices DESIGN.md calls out.
//
//	go test -bench=Ablation -benchtime=1x
//
// Each benchmark sweeps one parameter and reports the simulated runtime in
// cycles (or latency in ns) as a custom metric, so the cost or benefit of
// the design point reads directly off the bench output. The points of each
// sweep replay one workload at one seed on different machines, so each
// sweep is one Client.Compare row, simulated concurrently on the core worker
// pool before the sub-benchmarks report them — the wall-clock win of the
// sweep engine applied to the ablation matrix.

import (
	"context"
	"fmt"
	"testing"

	"corona/internal/config"
	"corona/internal/core"
	"corona/internal/memory"
	"corona/internal/traffic"
)

// xbarPoint is one crossbar ablation cell: the flagship machine with a
// single fabric parameter overridden through the registry's param map.
func xbarPoint(param string, value int) config.System {
	cfg := config.Corona()
	cfg.FabricParams = map[string]int{param: value}
	return cfg
}

const ablationRequests = 10000

func ablationSpec() traffic.Spec {
	return traffic.Spec{Name: "ablation", Kind: traffic.Uniform, DemandTBs: 5, WriteFrac: 0.3}
}

// reportAblation simulates the ablation workload on every configuration
// concurrently, then emits one sub-benchmark per point reporting
// metric(result).
func reportAblation(b *testing.B, names []string, configs []config.System, unit string, metric func(core.Result) float64) {
	b.Helper()
	results, err := core.NewClient().Compare(context.Background(), ablationSpec(), ablationRequests, 5, configs...)
	if err != nil {
		b.Fatal(err)
	}
	for i := range configs {
		v := metric(results[i])
		b.Run(names[i], func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				_ = v
			}
			b.ReportMetric(v, unit)
		})
	}
}

func cycles(r core.Result) float64 { return float64(r.Cycles) }

// BenchmarkAblationArbitration compares Corona's optical token-ring
// arbitration (8 positions/cycle, up to one revolution of wait) against an
// idealized near-zero-cost arbiter, isolating the token scheme's overhead.
func BenchmarkAblationArbitration(b *testing.B) {
	cases := []struct {
		name  string
		speed int
	}{
		{"token-8pos-per-cycle", 8},
		{"ideal-arbitration", 1 << 20},
	}
	var names []string
	var configs []config.System
	for _, c := range cases {
		names = append(names, c.name)
		configs = append(configs, xbarPoint("token_speed", c.speed))
	}
	reportAblation(b, names, configs, "sim-cycles", cycles)
}

// BenchmarkAblationXBarWidth sweeps the crossbar channel width (the paper's
// is 256 λ = 64 B/cycle: one cache line per clock).
func BenchmarkAblationXBarWidth(b *testing.B) {
	var names []string
	var configs []config.System
	for _, width := range []int{16, 32, 64, 128} {
		names = append(names, fmt.Sprintf("bytes-per-cycle-%d", width))
		configs = append(configs, xbarPoint("bytes_per_cycle", width))
	}
	reportAblation(b, names, configs, "sim-cycles", cycles)
}

// BenchmarkAblationMeshBisection sweeps the electrical mesh link width
// around the paper's LMesh (8 B/cycle) and HMesh (16 B/cycle) points.
func BenchmarkAblationMeshBisection(b *testing.B) {
	var names []string
	var configs []config.System
	for _, width := range []int{4, 8, 16, 32} {
		cfg := config.Custom("", "hmesh", config.OCM, nil)
		cfg.Label = fmt.Sprintf("Mesh-%dB/OCM", width)
		cfg.FabricParams = map[string]int{"bytes_per_cycle": width}
		names = append(names, fmt.Sprintf("link-bytes-per-cycle-%d", width))
		configs = append(configs, cfg)
	}
	reportAblation(b, names, configs, "sim-cycles", cycles)
}

// BenchmarkAblationOCMChain sweeps OCM daisy-chain depth; the un-retimed
// optical pass-through should cost ~0.2 ns per module on end-to-end latency.
func BenchmarkAblationOCMChain(b *testing.B) {
	var names []string
	var configs []config.System
	for _, depth := range []int{1, 2, 4, 8} {
		mem := memory.OCMConfig()
		mem.DaisyChain = depth
		cfg := config.Corona()
		cfg.MemOverride = &mem
		names = append(names, fmt.Sprintf("modules-%d", depth))
		configs = append(configs, cfg)
	}
	reportAblation(b, names, configs, "mean-latency-ns", func(r core.Result) float64 { return r.MeanLatencyNs })
}

// BenchmarkAblationMSHRs sweeps the per-cluster MSHR file size, the knob
// bounding each cluster's memory-level parallelism.
func BenchmarkAblationMSHRs(b *testing.B) {
	var names []string
	var configs []config.System
	for _, mshrs := range []int{8, 16, 32, 64, 128} {
		cfg := config.Corona()
		cfg.MSHRs = mshrs
		names = append(names, fmt.Sprintf("mshrs-%d", mshrs))
		configs = append(configs, cfg)
	}
	reportAblation(b, names, configs, "sim-cycles", cycles)
}
