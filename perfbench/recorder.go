package main

import (
	"math"
	"sort"
	"time"
)

// Recorder keeps every latency sample exactly, each with a weight (a
// batched round charges its latency to every op in it), so percentiles
// are exact rather than bucketed. A failed op is recorded as a sample
// no latency limit can meet: it sorts after every success.
type Recorder struct {
	samples []sample
	total   int64
	sorted  bool
}

type sample struct {
	ns     int64
	weight int64
}

// failedNs marks a failed op; it exceeds any measured latency.
const failedNs = math.MaxInt64

// Record adds weight ops that each took d.
func (r *Recorder) Record(d time.Duration, weight int) {
	if weight <= 0 {
		return
	}
	r.samples = append(r.samples, sample{ns: int64(d), weight: int64(weight)})
	r.total += int64(weight)
	r.sorted = false
}

// RecordFailed adds weight ops that failed.
func (r *Recorder) RecordFailed(weight int) {
	if weight <= 0 {
		return
	}
	r.samples = append(r.samples, sample{ns: failedNs, weight: int64(weight)})
	r.total += int64(weight)
	r.sorted = false
}

// Merge adds every sample of o.
func (r *Recorder) Merge(o *Recorder) {
	r.samples = append(r.samples, o.samples...)
	r.total += o.total
	r.sorted = false
}

// Count is the number of ops recorded, failures included.
func (r *Recorder) Count() int64 { return r.total }

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// smallest sample with at least ceil(q*Count) ops at or below it. A rank
// that lands on a failed op returns the largest Duration, and an empty
// recorder returns 0.
func (r *Recorder) Quantile(q float64) time.Duration {
	if r.total == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].ns < r.samples[j].ns })
		r.sorted = true
	}
	rank := int64(math.Ceil(q * float64(r.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, s := range r.samples {
		seen += s.weight
		if seen >= rank {
			return time.Duration(s.ns)
		}
	}
	return time.Duration(failedNs) // unreachable: rank <= total
}

// Mean returns the mean of the successful samples.
func (r *Recorder) Mean() time.Duration {
	var sum float64
	var n int64
	for _, s := range r.samples {
		if s.ns != failedNs {
			sum += float64(s.ns) * float64(s.weight)
			n += s.weight
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / float64(n))
}

// TailPercentile is the highest of 50, 90, 99, 99.9, ... (in percent)
// that still has at least ten of count samples beyond it, or 0 when even
// the median has fewer.
func TailPercentile(count int64) float64 {
	if count < 20 {
		return 0
	}
	best := 50.0
	for beyond := int64(10); count >= 10*beyond; beyond *= 10 {
		best = 100 - 100/float64(beyond)
	}
	return best
}
