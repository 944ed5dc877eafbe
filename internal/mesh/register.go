package mesh

import (
	"fmt"

	"corona/internal/noc"
	"corona/internal/power"
	"corona/internal/sim"
)

// FromParams resolves a Config from base (a preset such as HMeshConfig)
// plus overrides, rejecting unknown keys, non-positive sizes, and geometry
// that does not match the requested cluster count. Width and height must be
// overridden together and their product must equal the cluster count; when
// the cluster count differs from the base geometry and no explicit
// width/height is given, a square mesh is derived.
func FromParams(base Config, p noc.FabricParams) (Config, error) {
	cfg := base
	hop := int(cfg.HopLatency)
	if err := p.Apply(base.Name,
		noc.Param{Key: "width", Field: &cfg.Width},
		noc.Param{Key: "height", Field: &cfg.Height},
		noc.Param{Key: "bytes_per_cycle", Field: &cfg.BytesPerCycle},
		noc.Param{Key: "hop_latency", Field: &hop},
		noc.Param{Key: "link_buffer", Field: &cfg.LinkBuffer},
		noc.Param{Key: "inject_queue", Field: &cfg.InjectQueue},
		noc.Param{Key: "recv_buffer", Field: &cfg.RecvBuffer}); err != nil {
		return Config{}, err
	}
	cfg.HopLatency = sim.Time(hop)
	if p.Clusters > 0 && cfg.Width*cfg.Height != p.Clusters {
		_, wOver := p.Params["width"]
		_, hOver := p.Params["height"]
		if wOver || hOver {
			return Config{}, fmt.Errorf("mesh: %dx%d geometry has %d routers, system wants %d clusters",
				cfg.Width, cfg.Height, cfg.Width*cfg.Height, p.Clusters)
		}
		side := 1
		for side*side < p.Clusters {
			side++
		}
		if side*side != p.Clusters {
			return Config{}, fmt.Errorf("mesh: %d clusters is not a perfect square; pass explicit width/height",
				p.Clusters)
		}
		cfg.Width, cfg.Height = side, side
	}
	return cfg, nil
}

// registerMesh registers one mesh preset under its fabric name.
func registerMesh(name, display, desc string, base func() Config) {
	noc.Register(noc.Fabric{
		Name:        name,
		Display:     display,
		Description: desc,
		Build: func(k *sim.Kernel, p noc.FabricParams) (noc.Network, error) {
			cfg, err := FromParams(base(), p)
			if err != nil {
				return nil, err
			}
			return New(k, cfg), nil
		},
		Check:            func(p noc.FabricParams) error { _, err := FromParams(base(), p); return err },
		BisectionTBs:     base().BisectionTBs(),
		MinTransitCycles: base().HopLatency * 2, // one hop plus ejection
		PowerW: func(st noc.Stats, elapsed sim.Time) float64 {
			return power.MeshDynamicW(st.HopTraversals, elapsed)
		},
	})
}

// init registers the paper's two electrical baselines with the fabric
// registry; the system model builds them by name ("hmesh", "lmesh").
func init() {
	registerMesh("hmesh", "HMesh",
		"high-performance electrical 2D mesh, 1.28 TB/s bisection (Section 4)", HMeshConfig)
	registerMesh("lmesh", "LMesh",
		"low-performance electrical 2D mesh, 0.64 TB/s bisection (Section 4)", LMeshConfig)
}
