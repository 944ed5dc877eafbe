// Command corona-sim simulates a single (configuration, workload) pair and
// prints the detailed result: runtime, achieved bandwidth, latency
// distribution, and power. It can also replay a trace file produced by
// corona-tracegen, or compare one workload across several configurations.
//
// Usage:
//
//	corona-sim [-config XBar/OCM] [-workload Uniform] [-requests N] [-seed S]
//	corona-sim [-config scenario.json] [-workload Uniform]
//	corona-sim [-config XBar/OCM] -trace file.trc
//	corona-sim -compare [-config scenario.json] [-workload Uniform]
//
// -config accepts either a preset label "<Display>/<Memory>", where Display
// is any registered fabric's display label (e.g. "XBar/OCM", "SWMR/ECM"),
// or a path to a JSON scenario file (see
// examples/custom-fabric/scenario.json); a scenario's first machine is
// simulated unless -compare runs them all. -compare runs the workload on
// every selected configuration concurrently (one sweep pool worker per
// configuration, identical traffic seed for each) and prints the workload's
// row of Figures 8-10.
//
// Simulations run through the Client API (docs/API.md): invalid input —
// unknown presets, bad scenarios, malformed traces — exits 2 with the typed
// configuration error's message, simulation failures exit 1, and Ctrl-C
// cancels a long run cleanly instead of leaving it wedged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"corona"
	"corona/internal/config"
	"corona/internal/core"
	"corona/internal/trace"
)

// resolveConfigs turns the -config value — preset label or scenario path —
// into the list of machines to simulate.
func resolveConfigs(arg string) ([]config.System, error) {
	if strings.HasSuffix(arg, ".json") {
		sc, err := core.LoadScenario(arg)
		if err != nil {
			return nil, err
		}
		return sc.Configs, nil
	}
	cfg, err := config.ParseName(arg)
	if err != nil {
		// ParseName's rejection is invalid input; type it so fail() maps it
		// to the usage exit code.
		return nil, &core.ConfigError{Name: arg, Err: err}
	}
	return []config.System{cfg}, nil
}

func main() { os.Exit(run()) }

// fail prints err and maps it to an exit code: 2 for invalid input (typed
// *core.ConfigError), 1 for everything else — the CLI surface of the typed
// error scheme.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "corona-sim: %v\n", err)
	var ce *core.ConfigError
	if errors.As(err, &ce) {
		return 2
	}
	return 1
}

func run() int {
	cfgName := flag.String("config", "XBar/OCM", "preset <Display>/<OCM|ECM>, Display being any registered fabric's display label (e.g. XBar/OCM, SWMR/ECM), or a JSON scenario file")
	wlName := flag.String("workload", "Uniform", "workload name (Table 3: Uniform, Hot Spot, Tornado, Transpose, Barnes, ..., Water-Sp)")
	requests := flag.Int("requests", 50000, "L2 misses to simulate")
	seed := flag.Uint64("seed", 42, "workload generator seed")
	traceFile := flag.String("trace", "", "replay this trace file instead of a synthetic workload")
	threads := flag.Int("threads-per-cluster", 16, "thread-to-cluster mapping for trace replay")
	compare := flag.Bool("compare", false, "run the workload on every selected configuration in parallel and print the comparison")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := core.NewClient()

	if *compare {
		if *traceFile != "" {
			return fail(&core.ConfigError{Name: "flags",
				Err: fmt.Errorf("-compare runs a synthetic workload on every configuration; it cannot be combined with -trace")})
		}
		spec, ok := core.FindWorkload(*wlName)
		if !ok {
			return fail(&core.ConfigError{Name: *wlName, Err: fmt.Errorf("unknown workload %q", *wlName)})
		}
		configs := corona.Configurations()
		var resolveErr error
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "config" || resolveErr != nil {
				return
			}
			if configs, resolveErr = resolveConfigs(*cfgName); resolveErr != nil {
				return
			}
			if len(configs) == 1 {
				fmt.Fprintln(os.Stderr, "note: single -config with -compare; comparing it against the five presets")
				for _, p := range corona.Configurations() {
					if p.Name() != configs[0].Name() {
						configs = append(configs, p)
					}
				}
			}
		})
		if resolveErr != nil {
			return fail(resolveErr)
		}
		results, err := client.Compare(ctx, spec, *requests, *seed, configs...)
		if err != nil {
			return fail(err)
		}
		baseline := results[0]
		fmt.Printf("workload %q, %d requests per configuration, seed %d\n\n", spec.Name, *requests, *seed)
		fmt.Printf("%-12s  %10s  %9s  %12s  %8s\n", "config", "cycles", "TB/s", "latency(ns)", "speedup")
		for _, r := range results {
			fmt.Printf("%-12s  %10d  %9.2f  %12.1f  %8.2f\n",
				r.Config, r.Cycles, r.AchievedTBs, r.MeanLatencyNs, r.Speedup(baseline))
		}
		return 0
	}

	configs, err := resolveConfigs(*cfgName)
	if err != nil {
		return fail(err)
	}
	cfg := configs[0]
	if len(configs) > 1 {
		fmt.Fprintf(os.Stderr, "note: scenario defines %d machines; simulating %q (use -compare for all)\n",
			len(configs), cfg.Name())
	}

	var res core.Result
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return fail(err)
		}
		recs, err := trace.ReadAll(r)
		if err != nil {
			return fail(err)
		}
		if res, err = client.Replay(ctx, cfg, recs, *threads); err != nil {
			return fail(err)
		}
	} else {
		spec, ok := core.FindWorkload(*wlName)
		if !ok {
			return fail(&core.ConfigError{Name: *wlName, Err: fmt.Errorf("unknown workload %q", *wlName)})
		}
		if res, err = client.Run(ctx, cfg, spec, *requests, *seed); err != nil {
			return fail(err)
		}
	}

	fmt.Printf("configuration:        %s\n", res.Config)
	fmt.Printf("workload:             %s\n", res.Workload)
	fmt.Printf("requests:             %d\n", res.Requests)
	fmt.Printf("runtime:              %d cycles (%.2f us)\n", res.Cycles, res.Cycles.Ns()/1000)
	fmt.Printf("achieved bandwidth:   %.3f TB/s\n", res.AchievedTBs)
	fmt.Printf("mean miss latency:    %.1f ns\n", res.MeanLatencyNs)
	fmt.Printf("p99 miss latency:     %.1f ns\n", res.P99LatencyNs)
	fmt.Printf("network power:        %.1f W\n", res.NetworkPowerW)
	fmt.Printf("memory link power:    %.2f W\n", res.MemoryPowerW)
	fmt.Printf("network messages:     %d (%d bytes)\n", res.NetMessages, res.NetBytes)
	if res.HopTraversals > 0 {
		fmt.Printf("mesh hop traversals:  %d\n", res.HopTraversals)
	}
	if res.XBarUtil > 0 {
		fmt.Printf("crossbar utilization: %.1f%%\n", res.XBarUtil*100)
	}
	return 0
}
