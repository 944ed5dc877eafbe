package xbar

import (
	"corona/internal/noc"
	"corona/internal/power"
	"corona/internal/sim"
)

// FromParams resolves a Config from the published defaults plus overrides,
// rejecting unknown keys and non-positive sizes.
func FromParams(p noc.FabricParams) (Config, error) {
	cfg := DefaultConfig()
	if p.Clusters > 0 {
		cfg.Clusters = p.Clusters
	}
	if err := p.Apply("xbar",
		noc.Param{Key: "bytes_per_cycle", Field: &cfg.BytesPerCycle},
		noc.Param{Key: "token_speed", Field: &cfg.TokenSpeed},
		noc.Param{Key: "inject_queue", Field: &cfg.InjectQueue},
		noc.Param{Key: "recv_buffer", Field: &cfg.RecvBuffer}); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// init registers the MWSR crossbar with the fabric registry; the system
// model builds it by name ("xbar") instead of linking this package.
func init() {
	def := DefaultConfig()
	noc.Register(noc.Fabric{
		Name:        "xbar",
		Display:     "XBar",
		Description: "MWSR photonic crossbar, token-ring write arbitration (Corona §3.2)",
		Build: func(k *sim.Kernel, p noc.FabricParams) (noc.Network, error) {
			cfg, err := FromParams(p)
			if err != nil {
				return nil, err
			}
			return New(k, cfg), nil
		},
		Check: func(p noc.FabricParams) error { _, err := FromParams(p); return err },
		// Fully connected: every channel crosses any cut once.
		BisectionTBs:     float64(def.Clusters*def.BytesPerCycle) * 5e9 / 1e12,
		MinTransitCycles: 2, // 1-cycle serialization + 1-cycle nearest-hop propagation
		PowerW: func(_ noc.Stats, _ sim.Time) float64 {
			return power.XBarContinuousW
		},
	})
}
