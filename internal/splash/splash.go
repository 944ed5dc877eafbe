// Package splash provides stochastic workload models of the eleven SPLASH-2
// applications the paper evaluates (Table 3), substituting for the
// COTSon-generated 1024-thread traces that are not reproducible outside HP
// Labs (see DESIGN.md, substitution 1).
//
// Each application is modelled by the workload characteristics the paper
// reports and analyses:
//
//   - Offered memory-bandwidth demand, taken from the achieved bandwidth of
//     the fastest (XBar/OCM) configuration in Figure 9. Low-demand
//     applications (Barnes, Radiosity, Volrend, Water-Sp) fit in cache and
//     are satisfied even by the 0.96 TB/s ECM; high-demand ones (Cholesky,
//     FFT, Ocean, Radix) need 2-5 TB/s and are memory-bound on ECM.
//   - NUMA locality: the fraction of misses homed at the local controller.
//   - Barrier-driven burstiness for LU and Raytrace, which the paper singles
//     out as latency-bound rather than bandwidth-bound ("many threads attempt
//     to access the same remotely stored matrix block at the same time,
//     following a barrier").
//
// The network request counts are Table 3's, and the dataset descriptions are
// carried along for the Table 3 reproduction.
package splash

import "corona/internal/traffic"

// App couples a traffic.Spec with the Table 3 dataset description.
type App struct {
	Spec traffic.Spec
	// Dataset is the experimental data set; DefaultDataset is the suite's
	// default, both as reported in Table 3.
	Dataset        string
	DefaultDataset string
}

// lightBurst returns the barrier-phase burst parameters shared by the two
// latency-bound applications: after each barrier the issue rate spikes 6x
// for the first fifth of the phase, with a modest fraction of the burst
// aimed at one rotating hot block home. The concentration is deliberately
// small — LU's post-barrier block fetch is a transient, not a steady hot
// spot — but it is enough to overwhelm a 15 GB/s ECM controller while a
// 160 GB/s OCM controller rides it out, reproducing the paper's analysis of
// why these two applications are latency- rather than bandwidth-bound.
func lightBurst() *traffic.BurstSpec {
	return &traffic.BurstSpec{
		PeriodCycles:  20_000,
		WindowFrac:    0.2,
		Boost:         6,
		Concentration: 0.08,
	}
}

// Apps returns the eleven SPLASH-2 application models in Table 3 order.
func Apps() []App {
	return []App{
		{
			Spec: traffic.Spec{
				Name: "Barnes", Kind: traffic.Uniform,
				DemandTBs: 0.30, LocalFrac: 0.4, WriteFrac: 0.35,
				DefaultRequests: 7_200_000,
			},
			Dataset: "64 K particles", DefaultDataset: "16 K",
		},
		{
			Spec: traffic.Spec{
				Name: "Cholesky", Kind: traffic.Uniform,
				DemandTBs: 2.60, LocalFrac: 0.10, WriteFrac: 0.30,
				DefaultRequests: 600_000,
			},
			Dataset: "tk29.O", DefaultDataset: "tk15.O",
		},
		{
			Spec: traffic.Spec{
				Name: "FFT", Kind: traffic.Transpose,
				DemandTBs: 4.40, LocalFrac: 0.15, WriteFrac: 0.40,
				DefaultRequests: 176_000_000,
			},
			Dataset: "16 M points", DefaultDataset: "64 K",
		},
		{
			Spec: traffic.Spec{
				Name: "FMM", Kind: traffic.Uniform,
				DemandTBs: 1.30, LocalFrac: 0.4, WriteFrac: 0.30,
				DefaultRequests: 1_800_000,
			},
			Dataset: "1 M particles", DefaultDataset: "16 K",
		},
		{
			Spec: traffic.Spec{
				Name: "LU", Kind: traffic.Uniform,
				DemandTBs: 1.60, LocalFrac: 0.3, WriteFrac: 0.30,
				Burst:           lightBurst(),
				DefaultRequests: 34_000_000,
			},
			Dataset: "2048x2048 matrix", DefaultDataset: "512x512",
		},
		{
			Spec: traffic.Spec{
				Name: "Ocean", Kind: traffic.Uniform,
				DemandTBs: 4.80, LocalFrac: 0.3, WriteFrac: 0.40,
				DefaultRequests: 240_000_000,
			},
			Dataset: "2050x2050 grid", DefaultDataset: "258x258",
		},
		{
			Spec: traffic.Spec{
				Name: "Radiosity", Kind: traffic.Uniform,
				DemandTBs: 0.25, LocalFrac: 0.4, WriteFrac: 0.30,
				DefaultRequests: 4_200_000,
			},
			Dataset: "roomlarge", DefaultDataset: "room",
		},
		{
			Spec: traffic.Spec{
				Name: "Radix", Kind: traffic.Uniform,
				DemandTBs: 4.90, LocalFrac: 0.1, WriteFrac: 0.45,
				DefaultRequests: 189_000_000,
			},
			Dataset: "64 M integers", DefaultDataset: "1 M",
		},
		{
			Spec: traffic.Spec{
				Name: "Raytrace", Kind: traffic.Uniform,
				DemandTBs: 1.10, LocalFrac: 0.3, WriteFrac: 0.20,
				Burst:           lightBurst(),
				DefaultRequests: 700_000,
			},
			Dataset: "balls4", DefaultDataset: "car",
		},
		{
			Spec: traffic.Spec{
				Name: "Volrend", Kind: traffic.Uniform,
				DemandTBs: 0.40, LocalFrac: 0.4, WriteFrac: 0.25,
				DefaultRequests: 3_600_000,
			},
			Dataset: "head", DefaultDataset: "head",
		},
		{
			Spec: traffic.Spec{
				Name: "Water-Sp", Kind: traffic.Uniform,
				DemandTBs: 0.15, LocalFrac: 0.5, WriteFrac: 0.30,
				DefaultRequests: 3_200_000,
			},
			Dataset: "32 K molecules", DefaultDataset: "512",
		},
	}
}

// Specs returns just the traffic specs, in Table 3 order.
func Specs() []traffic.Spec {
	apps := Apps()
	out := make([]traffic.Spec, len(apps))
	for i, a := range apps {
		out[i] = a.Spec
	}
	return out
}
