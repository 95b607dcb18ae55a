package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedLoopChargesStallsAndFailures runs a closed loop against a
// fake target whose one round stalls for 50 ms and whose rounds each
// fail one update. The stall must be charged in full to the ops of its
// round, and every failure must count as attempted and failed and sort
// after every latency.
func TestClosedLoopChargesStallsAndFailures(t *testing.T) {
	const stall = 50 * time.Millisecond
	var rounds atomic.Int64
	res := runClosed(300*time.Millisecond, 2, func(w int) round {
		r := round{start: time.Now(), reads: 3, updates: 2, updatesFailed: 1}
		if rounds.Add(1) == 5 {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		r.end = time.Now()
		return r
	})
	n := rounds.Load()
	if res.attempted != 5*n || res.failed != n {
		t.Fatalf("attempted %d failed %d over %d rounds, want %d and %d", res.attempted, res.failed, n, 5*n, n)
	}
	reads, updates := res.win.total()
	if got := reads.Quantile(1); got < stall {
		t.Errorf("slowest read %v, want the %v stall charged", got, stall)
	}
	if reads.Count() != 3*n || updates.Count() != 2*n {
		t.Errorf("recorded %d reads and %d updates, want %d and %d", reads.Count(), updates.Count(), 3*n, 2*n)
	}
	if got := updates.Quantile(0.6); got != time.Duration(failedNs) {
		t.Errorf("update p60 %v, want the failure marker: half the updates failed", got)
	}
	var ops int64
	for i := range res.win.w {
		ops += res.win.w[i].ops
	}
	if ops != 4*n {
		t.Errorf("windows hold %d completed ops, want %d", ops, 4*n)
	}
}
