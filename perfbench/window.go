package main

import (
	"sort"
	"sync"
	"time"
)

// The machine the benchmark runs on may be shared: other tenants' work
// and hypervisor steal stall the process for milliseconds at a time, in
// bursts. A measured phase is therefore cut into windows of a fixed
// width, and each end-to-end figure is the median over the windows, so
// a burst spoils one window instead of the whole run.
const windowWidth = time.Second

// window is one slice of a measured phase. An op is charged to the
// window its round started in.
type window struct {
	reads, updates Recorder
	ops            int64         // ops completed without failure
	cpu            time.Duration // process CPU over the window
}

// windows splits [start, start+n*windowWidth) into n windows.
type windows struct {
	start time.Time
	w     []window
}

func newWindows(start time.Time, dur time.Duration) windows {
	n := int(dur / windowWidth)
	if n < 1 {
		n = 1
	}
	return windows{start: start, w: make([]window, n)}
}

// at returns the window holding t; times past either end fall in the
// first or last window.
func (ws windows) at(t time.Time) *window {
	i := int(t.Sub(ws.start) / windowWidth)
	if i < 0 {
		i = 0
	}
	if i >= len(ws.w) {
		i = len(ws.w) - 1
	}
	return &ws.w[i]
}

// merge adds o's samples and counts into ws window by window.
func (ws windows) merge(o windows) {
	for i := range ws.w {
		ws.w[i].reads.Merge(&o.w[i].reads)
		ws.w[i].updates.Merge(&o.w[i].updates)
		ws.w[i].ops += o.w[i].ops
	}
}

// total merges every window's latencies.
func (ws windows) total() (reads, updates Recorder) {
	for i := range ws.w {
		reads.Merge(&ws.w[i].reads)
		updates.Merge(&ws.w[i].updates)
	}
	return reads, updates
}

// median is the median of f over the windows where f has a value.
func (ws windows) median(f func(*window) (float64, bool)) float64 {
	var xs []float64
	for i := range ws.w {
		if v, ok := f(&ws.w[i]); ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// sampleCPU records the process CPU at every window boundary into ws.
// It returns once the last window has closed.
func (ws windows) sampleCPU(wg *sync.WaitGroup) {
	defer wg.Done()
	prev := processCPU()
	for i := range ws.w {
		time.Sleep(time.Until(ws.start.Add(time.Duration(i+1) * windowWidth)))
		now := processCPU()
		ws.w[i].cpu = now - prev
		prev = now
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
