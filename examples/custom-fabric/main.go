// Custom-fabric example: build a sixth machine — an SWMR photonic crossbar
// with optically connected memory — from a JSON scenario, without touching
// the simulator's source, and race it against the paper's flagship XBar/OCM
// under identical traffic.
//
// The SWMR organization is the one Corona argues against in Section 3.2:
// each cluster modulates its own dedicated channel (no token arbitration on
// the send path) and every receiver filters all channels' wavelengths. The
// cost is component count and head-of-line blocking at the source; the win
// is zero arbitration latency. This example puts numbers on that trade.
//
//	go run ./examples/custom-fabric [scenario.json]
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"corona"
)

func main() {
	path := filepath.Join("examples", "custom-fabric", "scenario.json")
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else if _, err := os.Stat(path); err != nil {
		// Run from this example's own directory.
		path = "scenario.json"
	}

	sc, err := corona.LoadScenario(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("registered fabrics: %s\n", strings.Join(corona.Fabrics(), ", "))
	fmt.Printf("scenario %s: %d machines x %d workloads, %d requests/cell\n\n",
		path, len(sc.Configs), len(sc.Workloads), sc.Requests)

	// Per-workload rows: every machine in a row sees identical traffic, so
	// the speedup column is a fair one-on-one race. Rows run through the
	// context-aware Client API (docs/API.md).
	client := corona.NewClient()
	for _, spec := range sc.Workloads {
		results, err := client.Compare(context.Background(), spec, sc.Requests, sc.Seed, sc.Configs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		baseline := results[0]
		fmt.Printf("%s:\n", spec.Name)
		fmt.Printf("  %-10s  %10s  %9s  %12s  %10s  %8s\n",
			"config", "cycles", "TB/s", "latency(ns)", "chan-util", "speedup")
		for _, r := range results {
			fmt.Printf("  %-10s  %10d  %9.2f  %12.1f  %9.1f%%  %8.2f\n",
				r.Config, r.Cycles, r.AchievedTBs, r.MeanLatencyNs,
				r.XBarUtil*100, r.Speedup(baseline))
		}
	}

	fmt.Println("\nInterpretation:")
	fmt.Println("  With fully provisioned receivers, SWMR sends with zero arbitration latency")
	fmt.Println("  (the MWSR crossbar pays up to a token revolution), so it wins outright on")
	fmt.Println("  permutation patterns like Tornado and Transpose — but it spends N^2 receive")
	fmt.Println("  rings and 6 W more trimming power to get there, and each source serializes")
	fmt.Println("  its traffic through one channel in FIFO order (head-of-line blocking under")
	fmt.Println("  fan-out). That component-cost-versus-latency trade is exactly the")
	fmt.Println("  channel-organization argument of the paper's Section 3.2. Edit the")
	fmt.Println("  scenario's params (recv_buffer, inject_queue, ...) to resize either")
	fmt.Println("  machine; no recompile needed.")
}
