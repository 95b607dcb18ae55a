// Command rcbench regenerates the tables and figures of "Characterizing
// Performance and Energy-Efficiency of The RAMCloud Storage System"
// (ICDCS 2017) on the simulated testbed.
//
// Usage:
//
//	rcbench -list                 # show available experiments
//	rcbench -exp table2,fig5      # run selected experiments
//	rcbench -all                  # run everything (several minutes)
//	rcbench -all -scale 2 -o out  # longer runs, write to a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ramcloud/internal/core"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		exps  = flag.String("exp", "", "comma-separated experiment ids")
		all   = flag.Bool("all", false, "run every experiment")
		scale = flag.Float64("scale", 1.0, "request/record scale (1.0 = standard reproduction)")
		seed  = flag.Int64("seed", 42, "simulation seed")
		out   = flag.String("o", "", "write results to file instead of stdout")
		j     = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent scenario simulations (1 = fully serial)")
	)
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-12s %s\n             %s\n", e.ID, e.Title, e.Setup)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	case *exps != "":
		ids = strings.Split(*exps, ",")
	default:
		fmt.Fprintln(os.Stderr, "rcbench: nothing to do; use -list, -exp or -all")
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var selected []core.Experiment
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := core.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "rcbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		selected = append(selected, e)
	}

	opts := core.Options{Scale: *scale, Seed: *seed}
	core.SetParallelism(*j)
	warmable := 0
	for _, e := range selected {
		if e.Scenarios != nil {
			warmable++
		}
	}
	if *j > 1 && warmable > 0 {
		// Run every scenario of every requested experiment on the worker
		// pool up front; the per-experiment timings below then measure
		// rendering against a warm memo (the prewarm line reports the
		// simulation cost once). Experiments without a scenario grid
		// (fig10's custom loop) still pay their cost in their own line.
		start := time.Now()
		core.NewRunner(*j).Prewarm(selected, opts)
		fmt.Fprintf(w, "(prewarmed %d of %d experiments on %d workers in %.1fs wall clock)\n\n",
			warmable, len(selected), *j, time.Since(start).Seconds())
	}
	for _, e := range selected {
		start := time.Now()
		res := e.Run(opts)
		fmt.Fprintf(w, "%s(completed in %.1fs wall clock)\n\n", res.Render(), time.Since(start).Seconds())
	}
}
