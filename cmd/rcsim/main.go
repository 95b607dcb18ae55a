// Command rcsim runs one ad-hoc scenario on the simulated RAMCloud
// cluster and prints a measurement summary: throughput, latency, power,
// energy efficiency and (optionally) crash-recovery statistics. It can
// also run any registered experiment by id, shape the offered load over
// time, and drive clients with open-loop Poisson arrivals.
//
// Examples:
//
//	rcsim -servers 10 -clients 30 -workload a -requests 20000
//	rcsim -servers 20 -clients 60 -rf 3 -workload a
//	rcsim -servers 9 -rf 2 -records 300000 -kill-after 15s
//	rcsim -arrival open -rate 5000 -shape diurnal
//	rcsim -experiment loadshape
//	rcsim -experiment latload -j 8
//	rcsim -runs 10 -j 8 -servers 10 -clients 30 -workload a
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ramcloud/internal/core"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

func main() {
	var (
		servers    = flag.Int("servers", 10, "storage servers")
		clients    = flag.Int("clients", 10, "client nodes")
		rf         = flag.Int("rf", 0, "replication factor (0 = off)")
		workload   = flag.String("workload", "b", "YCSB workload: a, b or c")
		records    = flag.Int("records", 100_000, "records preloaded (1 KB each)")
		requests   = flag.Int("requests", 20_000, "requests per client (0 with -shape: run for the shape's span)")
		rate       = flag.Float64("rate", 0, "per-client target ops/s: throttle (closed loop) or arrival rate (open loop)")
		arrival    = flag.String("arrival", "closed", "client arrival mode: closed or open (open-loop Poisson, requires -rate)")
		shape      = flag.String("shape", "", "load shape modulating -rate over time: diurnal, ramp or burst")
		batch      = flag.Int("batch", 0, "multi-op batch size: group ops into MultiRead/MultiWrite RPCs (0/1 = per-op)")
		window     = flag.Int("window", 0, "async pipeline window: outstanding ops per client (0/1 = closed loop; ignored when -batch > 1)")
		seed       = flag.Int64("seed", 42, "simulation seed")
		killAfter  = flag.Duration("kill-after", 0, "kill one server after this virtual time")
		runs       = flag.Int("runs", 1, "seed-sweep run count (like the paper's 5-run averages)")
		experiment = flag.String("experiment", "", "run a registered experiment by id (e.g. loadshape, latload, fig1a) and exit")
		scale      = flag.Float64("scale", 1.0, "experiment scale factor (with -experiment)")
		j          = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent scenario simulations (experiments and -runs sweeps; 1 = fully serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()
	core.SetParallelism(*j)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rcsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *experiment != "" {
		e, ok := core.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "rcsim: unknown experiment %q; registered ids:\n", *experiment)
			for _, exp := range core.Experiments() {
				fmt.Fprintf(os.Stderr, "  %-12s %s\n", exp.ID, exp.Title)
			}
			os.Exit(2)
		}
		opts := core.Options{Scale: *scale, Seed: *seed}
		if *j > 1 {
			core.NewRunner(*j).Prewarm([]core.Experiment{e}, opts)
		}
		fmt.Print(e.Run(opts).Render())
		return
	}

	w, err := ycsb.ByName(*workload, *records, 1024)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcsim: %v\n", err)
		os.Exit(2)
	}
	mode := core.ArrivalDefault
	switch *arrival {
	case "closed", "":
	case "open":
		mode = core.ArrivalOpen
		if *rate <= 0 {
			fmt.Fprintln(os.Stderr, "rcsim: -arrival open requires -rate > 0")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "rcsim: unknown arrival mode %q (closed, open)\n", *arrival)
		os.Exit(2)
	}
	phases, err := shapePhases(*shape)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcsim: %v\n", err)
		os.Exit(2)
	}
	if len(phases) > 0 && *rate <= 0 {
		fmt.Fprintln(os.Stderr, "rcsim: -shape requires -rate > 0 (phases modulate the target rate)")
		os.Exit(2)
	}

	scenario := core.Scenario{
		Name:    "rcsim",
		Servers: *servers,
		RF:      *rf,
		Groups: []core.ClientGroup{{
			Name:              "rcsim",
			Clients:           *clients,
			Workload:          w,
			RequestsPerClient: *requests,
			Arrival:           mode,
			Rate:              *rate,
			BatchSize:         *batch,
			Window:            *window,
		}},
		Phases:      phases,
		Seed:        *seed,
		KillAfter:   sim.Duration(*killAfter),
		KillTarget:  -1,
		IdleSeconds: boolToInt(*killAfter > 0) * 5,
	}

	if *runs > 1 {
		start := time.Now()
		sweep := core.RunSeeds(scenario, *runs, core.Options{Seed: *seed})
		fmt.Printf("seed sweep over %d runs (wall clock %.1fs):\n", *runs, time.Since(start).Seconds())
		fmt.Printf("throughput:       %.0f op/s   (stddev %.0f)\n", sweep.Throughput.Mean(), sweep.Throughput.Stddev())
		fmt.Printf("avg power/server: %.1f W     (stddev %.2f)\n", sweep.PowerPerServer.Mean(), sweep.PowerPerServer.Stddev())
		fmt.Printf("efficiency:       %.0f op/J   (stddev %.1f)\n", sweep.OpsPerJoule.Mean(), sweep.OpsPerJoule.Stddev())
		if sweep.RecoverySeconds.N() > 0 {
			fmt.Printf("recovery time:    %.2f s     (stddev %.2f)\n", sweep.RecoverySeconds.Mean(), sweep.RecoverySeconds.Stddev())
		}
		return
	}

	start := time.Now()
	res := core.Run(scenario)

	fmt.Printf("cluster: %d servers, %d clients (%s), RF %d, workload %s (%d records)\n",
		*servers, *clients, *arrival, *rf, w.Name, *records)
	fmt.Printf("simulated duration: %v   (wall clock %.1fs)\n", res.Duration, time.Since(start).Seconds())
	if res.TotalOps > 0 {
		fmt.Printf("throughput:         %.0f op/s (%d ops)\n", res.Throughput, res.TotalOps)
		fmt.Printf("read latency:       %s\n", res.ReadLatency.Summary(1000, "us"))
		if res.WriteLatency.Count() > 0 {
			fmt.Printf("write latency:      %s\n", res.WriteLatency.Summary(1000, "us"))
		}
	}
	fmt.Printf("avg power/server:   %.1f W   (CPU %.0f%%-%.0f%%)\n",
		res.AvgPowerPerServer, res.CPUMin*100, res.CPUMax*100)
	fmt.Printf("total energy:       %.1f KJ   efficiency %.0f op/J\n",
		res.TotalJoules/1000, res.OpsPerJoule)
	if res.Timeouts > 0 || res.Failures > 0 {
		fmt.Printf("client timeouts:    %d   failures: %d\n", res.Timeouts, res.Failures)
	}
	if len(res.Phases) > 0 {
		fmt.Println("per-phase breakdown:")
		fmt.Printf("  %-10s %-6s %9s %10s %10s %8s\n", "phase", "shape", "offered x", "Kop/s", "W/server", "op/J")
		for _, ph := range res.Phases {
			fmt.Printf("  %-10s %-6s %9.2f %10.0f %10.1f %8.0f\n",
				ph.Phase, ph.Shape, ph.OfferedScale, ph.Throughput/1000, ph.AvgPowerPerServer, ph.OpsPerJoule)
		}
	}
	if res.KilledAt > 0 {
		if res.Recovered {
			fmt.Printf("crash recovery:     killed at %v, recovered in %v\n", res.KilledAt, res.RecoveryTime)
		} else {
			fmt.Printf("crash recovery:     killed at %v, NOT recovered\n", res.KilledAt)
		}
	}
	if res.Crashed {
		fmt.Println("run aborted: deadline exceeded (excessive timeouts)")
	}
}

// shapePhases maps a -shape name onto a canned phase schedule.
func shapePhases(name string) ([]core.LoadPhase, error) {
	switch name {
	case "":
		return nil, nil
	case "diurnal":
		return []core.LoadPhase{
			{Name: "night", Shape: core.ShapeConstant, Duration: 4 * sim.Second, From: 0.2},
			{Name: "morning", Shape: core.ShapeRamp, Duration: 5 * sim.Second, From: 0.2, To: 1.0},
			{Name: "day", Shape: core.ShapeSine, Duration: 8 * sim.Second, From: 0.7, To: 1.0, Period: 8 * sim.Second},
			{Name: "evening", Shape: core.ShapeRamp, Duration: 5 * sim.Second, From: 1.0, To: 0.3},
		}, nil
	case "ramp":
		return []core.LoadPhase{
			{Name: "ramp", Shape: core.ShapeRamp, Duration: 10 * sim.Second, From: 0.1, To: 1.0},
			{Name: "hold", Shape: core.ShapeConstant, Duration: 5 * sim.Second, From: 1.0},
		}, nil
	case "burst":
		return []core.LoadPhase{
			{Name: "baseline", Shape: core.ShapeConstant, Duration: 5 * sim.Second, From: 0.4},
			{Name: "burst", Shape: core.ShapeStep, Duration: 4 * sim.Second, From: 0.4, To: 1.8, Steps: 2},
			{Name: "cooldown", Shape: core.ShapeRamp, Duration: 5 * sim.Second, From: 1.8, To: 0.4},
		}, nil
	default:
		return nil, fmt.Errorf("unknown -shape %q (diurnal, ramp, burst)", name)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
