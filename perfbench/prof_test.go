package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOfSyntheticStacks(t *testing.T) {
	for _, c := range []struct {
		want   string
		frames []string // innermost first
	}{
		{"sim", []string{"runtime.gopark", "runtime.chanrecv1", "ramcloud/internal/sim.(*Proc).park", "ramcloud/internal/server.(*Server).serve", "ramcloud/internal/core.Run"}},
		{"transport", []string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "ramcloud/internal/transport.(*connWriter).loop"}},
		{"wire", []string{"runtime.memmove", "ramcloud/internal/wire.AppendEnvelope", "ramcloud/internal/transport.(*connWriter).enqueue"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "ramcloud/internal/logstore.(*Log).Append"}},
		{"syscall", []string{"syscall.Syscall", "syscall.Getrusage", "main.takeSnapshot"}},
		{"sched", []string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{"bench", []string{"main.fnv64a", "main.(*tracer).enter"}},
		{"other", []string{"runtime.memclrNoHeapPointers"}},
		{"other", []string{"ramcloud/internal/analysis/framework.Run"}},
		{"other", nil},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

var spinSink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 100_000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	spinSink = x
}

// TestProfileSharesParsesRealProfile decodes a CPU profile of a busy
// loop in this package and finds the loop in the bench bucket.
func TestProfileSharesParsesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range profBuckets {
		total += shares[b]
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %g: %v", total, shares)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %g, want most of a profile of a busy loop: %v", shares["bench"], shares)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := profileShares([]byte("not a profile")); err == nil {
		t.Error("want an error for a non-gzip profile")
	}
}
