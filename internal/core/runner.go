package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the concurrent scenario execution layer. Every figure and
// table is produced from independent sim.Engine instances, so distinct
// scenarios can run on separate OS threads; what must stay serial is only
// the rendering (output order) and the aggregation of multi-seed sweeps
// (float summation order). Three pieces cooperate:
//
//   - The scenario memo is singleflight: the first request for a key runs
//     it, concurrent requests for the same key park on the entry's done
//     channel and share the one *Result. Prewarming and rendering can
//     therefore overlap without ever duplicating a simulation.
//   - Runner is a bounded worker pool. The bound is also the peak-memory
//     budget for sweeps: at most Workers() un-rendered Results are in
//     flight at once (a 40-point seed sweep reduces each Result to four
//     scalars as it completes instead of holding 40 histogram sets live).
//   - Experiments declare their scenario grid up-front (Experiment.
//     Scenarios), so Prewarm can pump every cell of every requested
//     experiment through the pool before the sequential render pass,
//     which then finds a warm memo and emits byte-identical output in
//     the exact order a serial run would.

// Default process-wide parallelism; 0 means GOMAXPROCS at the time of use.
var defaultParallelism atomic.Int32

// Parallelism returns the process-wide default for concurrent scenario
// simulations (GOMAXPROCS unless SetParallelism overrode it).
func Parallelism() int {
	if n := defaultParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the process-wide default for concurrent scenario
// simulations (the -j flag of the cmd binaries); n <= 0 restores the
// GOMAXPROCS default. It returns the previous setting (0 = GOMAXPROCS).
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultParallelism.Swap(int32(n)))
}

// Scenario memo with singleflight semantics. Several figures reuse the
// same grid (e.g. fig1a/fig1b/fig2), so identical scenarios run once per
// process; concurrent requests for an in-flight scenario share that run.
var (
	memoMu   sync.Mutex
	memo     = map[string]*memoEntry{}
	memoRuns atomic.Int64 // simulations actually executed (not joined)
)

type memoEntry struct {
	done     chan struct{}
	res      *Result // set before done is closed; nil if the run panicked
	panicked any     // the owning run's panic value, re-raised on joiners
}

func runMemo(s Scenario) *Result {
	key := memoKey(s)
	memoMu.Lock()
	if e, ok := memo[key]; ok {
		memoMu.Unlock()
		<-e.done
		if e.panicked != nil {
			// The owning run panicked (a programming error in the scenario):
			// surface the same panic on every joiner instead of re-paying
			// the simulation just to hit it again.
			panic(e.panicked)
		}
		return e.res
	}
	e := &memoEntry{done: make(chan struct{})}
	memo[key] = e
	memoMu.Unlock()

	defer func() {
		if p := recover(); p != nil { // Run panicked: drop the entry, re-raise
			e.panicked = p
			memoMu.Lock()
			if memo[key] == e {
				delete(memo, key)
			}
			memoMu.Unlock()
			close(e.done)
			panic(p)
		}
		close(e.done)
	}()
	memoRuns.Add(1)
	e.res = Run(s)
	return e.res
}

// MemoRuns reports how many scenario simulations have actually executed
// (memo misses). The singleflight tests assert on its deltas.
func MemoRuns() int64 { return memoRuns.Load() }

// ResetMemo drops every memoized scenario result, releasing their
// histograms and series for garbage collection. Long-lived embedders that
// render many one-off experiments (the memo is process-global and grows
// with every distinct scenario) call this between batches. Runs already
// in flight complete against their old entries — joined callers still get
// their shared Result — but are not re-added, so a concurrent ResetMemo
// never hands out a stale entry for a new request.
func ResetMemo() {
	memoMu.Lock()
	memo = map[string]*memoEntry{}
	memoMu.Unlock()
}

// Runner executes distinct scenarios concurrently on a bounded worker
// pool. The zero worker count (and NewRunner(0)) means GOMAXPROCS; a
// one-worker Runner degenerates to the serial path with no goroutines.
type Runner struct {
	workers int
}

// NewRunner returns a pool that runs at most workers scenario simulations
// at a time; workers <= 0 selects the process default (Parallelism()).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = Parallelism()
	}
	return &Runner{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (r *Runner) Workers() int { return r.workers }

// each executes fn(i) for every i in [0, n) with at most r.workers calls
// in flight. Workers pull indices from a shared counter, so early-
// finishing workers steal remaining cells instead of idling. A panic in
// fn is re-raised on the calling goroutine after the pool drains, so an
// embedder's recover sees it exactly as it would on the serial path (a
// panicking worker stops pulling cells; the rest finish theirs).
func (r *Runner) each(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := r.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for k := 0; k < w; k++ {
		wg.Add(1)
		//rcvet:allow goroutine pool workers run whole simulations, each on its own private Engine; results are folded in deterministic index order after wg.Wait, so scheduling cannot reach rendered output
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// RunAll pumps the scenarios through the singleflight memo, at most
// Workers() at a time, and returns their results in input order.
// Duplicate scenarios in the input share one simulation.
func (r *Runner) RunAll(scenarios []Scenario) []*Result {
	out := make([]*Result, len(scenarios))
	r.each(len(scenarios), func(i int) {
		out[i] = runMemo(scenarios[i])
	})
	return out
}

// Prewarm enumerates the scenario grids of the given experiments (those
// that declare one — custom-simulation experiments like fig10 have none)
// and pumps the deduplicated set through the pool. A subsequent
// sequential Run/Render pass finds every cell memoized, so the output is
// byte-identical to a serial run while the simulations themselves used
// every worker.
func (r *Runner) Prewarm(exps []Experiment, o Options) {
	// Normalize once: grids enumerated from raw Options would otherwise
	// key on a zero Profile/Scale/Seed and never match the cells the
	// normalized Run path requests (wasted simulations, serial render).
	o = o.normalize()
	var grid []Scenario
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Scenarios == nil {
			continue
		}
		for _, s := range e.Scenarios(o) {
			key := memoKey(s)
			if seen[key] {
				continue
			}
			seen[key] = true
			grid = append(grid, s)
		}
	}
	r.each(len(grid), func(i int) {
		runMemo(grid[i])
	})
}
