package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestRecorderMatchesSortedReference checks every quantile against the
// nearest-rank value of the fully expanded, sorted sample list.
func TestRecorderMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r Recorder
	var ref []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(100*time.Microsecond))
		w := 1 + rng.Intn(32)
		r.Record(d, w)
		for j := 0; j < w; j++ {
			ref = append(ref, d)
		}
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(ref))))
		if got, want := r.Quantile(q), ref[rank-1]; got != want {
			t.Errorf("q=%g: got %v, want %v", q, got, want)
		}
	}
	if r.Count() != int64(len(ref)) {
		t.Errorf("count %d, want %d", r.Count(), len(ref))
	}
}

// TestRecorderFailuresMissEveryLimit checks that failed ops sort after
// every success, so a percentile landing on one is unbounded.
func TestRecorderFailuresMissEveryLimit(t *testing.T) {
	var r Recorder
	r.Record(time.Millisecond, 98)
	r.RecordFailed(2)
	if got := r.Quantile(0.98); got != time.Millisecond {
		t.Errorf("p98 = %v, want 1ms", got)
	}
	if got := r.Quantile(0.99); got != time.Duration(math.MaxInt64) {
		t.Errorf("p99 = %v, want the failure marker", got)
	}
	if got := r.Mean(); got != time.Millisecond {
		t.Errorf("mean of successes = %v, want 1ms", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {1000, 99}, {10_000, 99.9}, {99_999, 99.9}, {100_000, 99.99}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
