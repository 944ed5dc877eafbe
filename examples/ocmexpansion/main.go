// OCM expansion example (Section 3.3 / Figure 6c): Corona grows memory by
// daisy-chaining optically connected memory modules on each fiber loop.
// Because light passes through modules without buffering or retiming, the
// incremental latency per module is tiny — unlike FBDIMM-style electrical
// chaining, which resamples and retransmits at every hop. The chain depth is
// bounded instead by the optical power budget.
//
// This example measures memory access latency versus chain depth on the
// simulated controller, compares an FBDIMM-like electrical chain, and prints
// the optical budget that limits depth.
//
//	go run ./examples/ocmexpansion
package main

import (
	"fmt"

	"corona/internal/memory"
	"corona/internal/photonic"
	"corona/internal/sim"
)

// doneAt records a transaction's completion time; it is the controller's
// typed completion handler.
type doneAt sim.Time

func (d *doneAt) OnEvent(now sim.Time, _ uint64) { *d = doneAt(now) }

// measure returns the isolated read latency for a controller configuration.
func measure(cfg memory.Config) sim.Time {
	k := sim.NewKernel()
	c := memory.NewController(k, cfg, 0)
	var done doneAt
	c.Submit(&memory.Request{ID: 1, Addr: 0, ReqBytes: 16, RspBytes: 72, DoneHandler: &done})
	k.Run()
	return sim.Time(done)
}

func main() {
	fmt.Println("OCM daisy-chain expansion: access latency vs depth")
	fmt.Printf("%-8s  %-18s  %-22s\n", "modules", "OCM latency (ns)", "FBDIMM-like (ns)")
	for depth := 1; depth <= 8; depth *= 2 {
		ocm := memory.OCMConfig()
		ocm.DaisyChain = depth

		// An electrical FBDIMM-style chain resamples at each module:
		// ~2 ns per hop each way instead of the optical pass-through.
		fb := memory.OCMConfig()
		fb.DaisyChain = depth
		fb.ChainHopCycles = sim.FromNs(2)

		fmt.Printf("%-8d  %-18.1f  %-22.1f\n", depth, measure(ocm).Ns(), measure(fb).Ns())
	}

	fmt.Println("\n\"As the light passes directly through the OCM without buffering or")
	fmt.Println(" retiming ... the memory access latency is similar across all modules.\"")

	fmt.Println("\nOptical budget limit on chain depth (launch power per wavelength):")
	for _, launch := range []float64{0, 5, 10, 15} {
		max := photonic.MaxOCMModules(launch, 1)
		fmt.Printf("  %4.1f dBm -> up to %d modules\n", launch, max)
	}
	fmt.Println("\nWorst-case loop budget through 4 modules at 10 dBm:")
	fmt.Println(photonic.OCMBudget(10, 4))
}
