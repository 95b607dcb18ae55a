// Command rcgold renders every experiment at a fixed seed and scale to
// stdout. Its output is a determinism fixture: two runs of the same
// binary must be byte-identical, and neither a simulation-core refactor
// nor the parallelism level may change the rendering (diff the output
// against a pre-change capture, and -j 8 against -j 1).
//
//	rcgold -scale 1.0 -seed 42 > golden.txt
//	rcgold -only fig1a,dist
//	rcgold -j 8            # prewarm every scenario on 8 workers
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"ramcloud/internal/core"
)

func main() {
	var (
		scale = flag.Float64("scale", 1.0, "experiment scale factor")
		seed  = flag.Int64("seed", 42, "simulation seed")
		only  = flag.String("only", "", "comma-separated experiment ids (default: all)")
		j     = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent scenario simulations (1 = fully serial)")
	)
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := core.ByID(id); !ok {
				fmt.Fprintf(os.Stderr, "rcgold: unknown experiment %q\n", id)
				os.Exit(2)
			}
			want[id] = true
		}
	}
	var selected []core.Experiment
	for _, exp := range core.Experiments() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		selected = append(selected, exp)
	}

	opts := core.Options{Scale: *scale, Seed: *seed}
	core.SetParallelism(*j)
	if *j > 1 {
		// Pump every scenario of every selected experiment through the
		// worker pool; the sequential render below then hits a warm memo,
		// so its output is byte-identical to a -j 1 run.
		core.NewRunner(*j).Prewarm(selected, opts)
	}
	for _, exp := range selected {
		res := exp.Run(opts)
		fmt.Println(res.Render())
	}
}
