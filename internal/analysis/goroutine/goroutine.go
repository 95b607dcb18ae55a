// Package goroutine forbids bare go statements in the deterministic
// simulation packages (sim, simnet, server, coordinator, client, core).
//
// The simulator is cooperatively scheduled: sim.Engine.Go makes each
// proc a coroutine and the event loop switches to exactly one proc at a
// time, so simulated interleaving is a function of the event heap, not
// of the OS scheduler. A raw go statement bypasses that handoff: its
// writes race the engine and its timing varies run to run.
//
// The one legitimate spawning site — the cross-scenario worker pool in
// core's Runner, which synchronizes before any simulated state is
// observed — carries an //rcvet:allow goroutine justification. Anything
// new must either go through sim.Engine.Go or document why OS-level
// concurrency cannot perturb simulated time. Test files are exempt (race hammers drive the
// pool from plain goroutines on purpose).
package goroutine

import (
	"go/ast"

	"ramcloud/internal/analysis/framework"
	"ramcloud/internal/analysis/scope"
)

// Analyzer is the goroutine check.
var Analyzer = &framework.Analyzer{
	Name: "goroutine",
	Doc:  "forbid bare go statements in deterministic simulation packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !scope.SingleThreaded(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if scope.TestFile(filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement in a deterministic package bypasses the engine's cooperative scheduler; spawn procs with sim.Engine.Go, or annotate //rcvet:allow goroutine <why>")
			}
			return true
		})
	}
	return nil
}
