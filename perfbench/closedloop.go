package main

import (
	"sync"
	"time"
)

// round is one closed-loop round: when it ran, how many reads and
// updates it issued, and how many of each failed.
type round struct {
	start, end                 time.Time
	reads, updates             int
	readsFailed, updatesFailed int
	wrong                      int // reads that returned other bytes
}

// runClosed runs workers goroutines that each issue rounds back to back
// until dur has passed. A round's latency is charged to every op in it.
func runClosed(dur time.Duration, workers int, do func(w int) round) kvPhase {
	start := time.Now()
	deadline := start.Add(dur)
	out := kvPhase{win: newWindows(start, dur)}
	var sampler sync.WaitGroup
	sampler.Add(1)
	go out.win.sampleCPU(&sampler)
	results := make([]kvPhase, workers)
	lastEnd := make([]time.Time, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			res.win = newWindows(start, dur)
			for time.Now().Before(deadline) {
				r := do(w)
				lastEnd[w] = r.end
				lat := r.end.Sub(r.start)
				win := res.win.at(r.start)
				win.reads.Record(lat, r.reads-r.readsFailed)
				win.reads.RecordFailed(r.readsFailed)
				win.updates.Record(lat, r.updates-r.updatesFailed)
				win.updates.RecordFailed(r.updatesFailed)
				failed := r.readsFailed + r.updatesFailed
				win.ops += int64(r.reads + r.updates - failed)
				res.attempted += int64(r.reads + r.updates)
				res.failed += int64(failed)
				res.wrong += int64(r.wrong)
			}
		}(w)
	}
	wg.Wait()
	sampler.Wait()
	var last time.Time
	for w := range results {
		r := &results[w]
		out.win.merge(r.win)
		out.attempted += r.attempted
		out.failed += r.failed
		out.wrong += r.wrong
		if lastEnd[w].After(last) {
			last = lastEnd[w]
		}
	}
	out.wall = last.Sub(start)
	return out
}
