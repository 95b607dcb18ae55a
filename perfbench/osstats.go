package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// snapshot holds the process-wide counters a phase is measured by: CPU
// and context switches from getrusage, syscalls from /proc/self/io, and
// the Go runtime's own metrics.
type snapshot struct {
	at           time.Time
	cpu          time.Duration // user + system
	ctxsw        int64
	syscr, syscw int64
	rt           []metrics.Sample
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func takeSnapshot() snapshot {
	s := snapshot{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxsw = ru.Nvcsw + ru.Nivcsw
	}
	s.syscr, s.syscw = procIO()
	s.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	return s
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO reads the read and write syscall counts from /proc/self/io;
// both are 0 where the file is unreadable.
func procIO() (syscr, syscw int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		switch name {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// peakRSSMB is the process's peak resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// usage is the difference between two snapshots.
type usage struct {
	wall                  time.Duration
	cpu                   time.Duration
	ctxsw, syscr, syscw   int64
	schedP99              time.Duration
	mutexWait             time.Duration
	gcCPU, totalCPU       float64
	allocObjs, allocBytes uint64
}

func since(a, b snapshot) usage {
	u := usage{
		wall:  b.at.Sub(a.at),
		cpu:   b.cpu - a.cpu,
		ctxsw: b.ctxsw - a.ctxsw,
		syscr: b.syscr - a.syscr,
		syscw: b.syscw - a.syscw,
	}
	u.schedP99 = histDeltaQuantile(a.rt[0].Value.Float64Histogram(), b.rt[0].Value.Float64Histogram(), 0.99)
	u.mutexWait = time.Duration((b.rt[1].Value.Float64() - a.rt[1].Value.Float64()) * 1e9)
	u.gcCPU = b.rt[2].Value.Float64() - a.rt[2].Value.Float64()
	u.totalCPU = b.rt[3].Value.Float64() - a.rt[3].Value.Float64()
	u.allocObjs = b.rt[4].Value.Uint64() - a.rt[4].Value.Uint64()
	u.allocBytes = b.rt[5].Value.Uint64() - a.rt[5].Value.Uint64()
	return u
}

// histDeltaQuantile is the q-quantile of the samples b recorded beyond
// a, taken as the upper bound of the bucket it falls in.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return time.Duration(hi * 1e9)
		}
	}
	return 0
}
