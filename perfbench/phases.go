package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"
)

// phases holds what the measured phases of one run saw.
type phases[T any] struct {
	untraced      T     // the measured phase with tracing off
	untracedUsage usage // process counters over it

	// Traced runs only: a second phase of equal length with the tracer
	// installed and the CPU profiler on.
	traced      T
	tracedUsage usage
	tracer      *tracer
	profile     []byte
}

// runPhases runs an unmeasured warm-up of length warm, so connections,
// pools and caches are filled, and then the measured phases. An untraced
// run measures cfg.duration untraced; a traced run splits it into an
// untraced half, the reference for the tracing overhead, and a traced
// half. install hands the tracer to whatever records spans (nil removes
// it).
func runPhases[T any](cfg config, warm time.Duration, workers int, phase func(time.Duration, *tracer) T, install func(*tracer)) (*phases[T], error) {
	if warm > 0 {
		phase(warm, nil)
	}
	p := &phases[T]{}
	dur := cfg.duration
	if cfg.traced {
		dur /= 2
	}
	a := takeSnapshot()
	p.untraced = phase(dur, nil)
	p.untracedUsage = since(a, takeSnapshot())
	if !cfg.traced {
		return p, nil
	}
	p.tracer = newTracer(time.Now(), workers)
	install(p.tracer)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	a = takeSnapshot()
	p.traced = phase(dur, p.tracer)
	p.tracedUsage = since(a, takeSnapshot())
	pprof.StopCPUProfile()
	install(nil)
	p.profile = buf.Bytes()
	return p, nil
}
