// Package metrics provides counters, per-second time series and logarithmic
// histograms used to instrument the simulated cluster. The package is
// deliberately independent of the simulation engine: callers index series by
// integer second so the same types serve CPU, power, disk and latency data.
//
// None of these types are safe for concurrent use; the simulation engine's
// strict hand-off makes external locking unnecessary.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter. Negative deltas panic: counters only grow.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative delta on Counter")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Series is a per-second time series. Index 0 covers simulated time
// [0s, 1s), index 1 covers [1s, 2s), and so on.
type Series struct {
	vals []float64
}

// Add accumulates v into the bucket for the given second, growing the
// series as needed. Negative seconds are ignored.
func (s *Series) Add(second int, v float64) {
	if second < 0 {
		return
	}
	for len(s.vals) <= second {
		s.vals = append(s.vals, 0)
	}
	s.vals[second] += v
}

// Set overwrites the bucket for the given second.
func (s *Series) Set(second int, v float64) {
	if second < 0 {
		return
	}
	for len(s.vals) <= second {
		s.vals = append(s.vals, 0)
	}
	s.vals[second] = v
}

// At returns the value for the given second (0 when out of range).
func (s *Series) At(second int) float64 {
	if second < 0 || second >= len(s.vals) {
		return 0
	}
	return s.vals[second]
}

// Len returns the number of seconds covered.
func (s *Series) Len() int { return len(s.vals) }

// Values returns a copy of the underlying buckets.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Sum returns the sum over [from, to).
func (s *Series) Sum(from, to int) float64 {
	total := 0.0
	for i := max(from, 0); i < to && i < len(s.vals); i++ {
		total += s.vals[i]
	}
	return total
}

// Mean returns the average over [from, to); zero if the range is empty.
func (s *Series) Mean(from, to int) float64 {
	from = max(from, 0)
	to = min(to, len(s.vals))
	if to <= from {
		return 0
	}
	return s.Sum(from, to) / float64(to-from)
}

// Max returns the maximum over [from, to).
func (s *Series) Max(from, to int) float64 {
	m := math.Inf(-1)
	found := false
	for i := max(from, 0); i < to && i < len(s.vals); i++ {
		if s.vals[i] > m {
			m = s.vals[i]
			found = true
		}
	}
	if !found {
		return 0
	}
	return m
}

// Histogram records non-negative int64 samples (typically latencies in
// nanoseconds) in logarithmic buckets: 64 powers of two, each split into 16
// linear sub-buckets, giving a worst-case relative error of ~6%.
type Histogram struct {
	buckets [64 * subBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

const subBuckets = 16

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v) // exact for tiny values
	}
	exp := 63 - leadingZeros64(uint64(v))
	base := exp * subBuckets
	sub := int((v >> (uint(exp) - 4)) & (subBuckets - 1))
	return base + sub
}

func leadingZeros64(x uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if x&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// bucketLow returns the lower bound of bucket i.
func bucketLow(i int) int64 {
	exp := i / subBuckets
	sub := i % subBuckets
	if exp == 0 {
		return int64(sub)
	}
	return (1 << uint(exp)) + int64(sub)<<(uint(exp)-4)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge adds all samples from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary renders count/mean/p50/p95/p99/max with a unit divisor (e.g. 1000
// for microseconds from nanosecond samples).
func (h *Histogram) Summary(unitDiv float64, unit string) string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f%s p95=%.1f%s p99=%.1f%s max=%.1f%s",
		h.count,
		h.Mean()/unitDiv, unit,
		float64(h.Quantile(0.50))/unitDiv, unit,
		float64(h.Quantile(0.95))/unitDiv, unit,
		float64(h.Quantile(0.99))/unitDiv, unit,
		float64(h.max)/unitDiv, unit)
}

// Distribution summarises a float64 sample set (used for run-to-run error
// bars, mirroring the paper's 5-run averages).
type Distribution struct {
	samples []float64
}

// Add appends one sample.
func (d *Distribution) Add(v float64) { d.samples = append(d.samples, v) }

// N returns the sample count.
func (d *Distribution) N() int { return len(d.samples) }

// Mean returns the sample mean.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.samples {
		s += v
	}
	return s / float64(len(d.samples))
}

// Stddev returns the sample standard deviation (n-1 denominator).
func (d *Distribution) Stddev() float64 {
	n := len(d.samples)
	if n < 2 {
		return 0
	}
	m := d.Mean()
	ss := 0.0
	for _, v := range d.samples {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(n-1))
}

// Median returns the sample median.
func (d *Distribution) Median() float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, d.samples)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// FormatTable renders rows of cells as an aligned plain-text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
