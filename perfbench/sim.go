package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"ramcloud/internal/core"
	"ramcloud/internal/ycsb"
)

// sim-a is the simulator's closed-loop paper configuration, run through
// core.Run with default settings (lanes and parallelism are whatever a
// user gets): 10 servers, 30 clients, no replication, YCSB-A uniform
// over 100,000 records of 1 KB, a fixed request count per client.
const (
	simServers  = 10
	simClients  = 30
	simRecords  = 100_000
	simRequests = 3_000 // per client, per cell
	simSetups   = 15
)

func simScenario(seed int64, requests int) core.Scenario {
	return core.Scenario{
		Name:              "sim-a",
		Servers:           simServers,
		Clients:           simClients,
		Workload:          ycsb.WorkloadA(simRecords, valueBytes),
		RequestsPerClient: requests,
		Seed:              seed,
	}
}

// simPhase is what one phase of sim-a measured: one or more cells.
type simPhase struct {
	walls   []float64 // seconds per cell
	ops     int64
	last    *core.Result
	digests []string
	bad     []string // failed checks
}

// digest hashes the deterministic fields of a result; every cell of a
// run at one seed must produce the same one.
func digest(r *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %.9g %.9g %.9g %.9g %.9g %.9g %d %d %d\n",
		r.TotalOps, r.Duration, r.Throughput, r.AvgPowerPerServer, r.TotalJoules,
		r.OpsPerJoule, r.CPUMin, r.CPUMax, r.Timeouts, r.Failures, r.Retries)
	for _, hist := range []interface {
		Count() int64
		Mean() float64
		Quantile(float64) int64
	}{r.ReadLatency, r.WriteLatency} {
		fmt.Fprintf(h, "%d %.9g %d %d\n", hist.Count(), hist.Mean(), hist.Quantile(0.5), hist.Quantile(0.99))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkCell applies sim-a's correctness checks to one cell's result.
func checkCell(r *core.Result) []string {
	var bad []string
	if want := int64(simClients * simRequests); r.TotalOps != want {
		bad = append(bad, fmt.Sprintf("TotalOps %d, want %d", r.TotalOps, want))
	}
	if r.Failures != 0 || r.Timeouts != 0 || r.Crashed {
		bad = append(bad, fmt.Sprintf("failures %d, timeouts %d, crashed %t", r.Failures, r.Timeouts, r.Crashed))
	}
	return bad
}

func runSimA(cfg config) (*outcome, error) {
	// Set-up is building the simulated cluster and bulk-loading its
	// records, timed as a cell with one request per client.
	var setupTimes []setupTime
	for i := 0; i < simSetups; i++ {
		t0, cpu0 := time.Now(), processCPU()
		core.Run(simScenario(cfg.seed, 1))
		setupTimes = append(setupTimes, setupTime{wall: time.Since(t0).Seconds(), cpu: (processCPU() - cpu0).Seconds()})
	}
	setupWall, setupCPU := setupSeconds(setupTimes)
	phase := func(dur time.Duration, tr *tracer) simPhase {
		var p simPhase
		start := time.Now()
		for len(p.walls) < 2 || time.Since(start) < dur {
			t0 := time.Now()
			if tr != nil {
				tr.beginOp(0, t0)
			}
			r := core.Run(simScenario(cfg.seed, simRequests))
			end := time.Now()
			if tr != nil {
				tr.endOp(0, end)
			}
			p.walls = append(p.walls, end.Sub(t0).Seconds())
			p.ops += r.TotalOps
			p.last = r
			p.digests = append(p.digests, digest(r))
			p.bad = append(p.bad, checkCell(r)...)
		}
		return p
	}
	// The set-up cells already warmed the process.
	p, err := runPhases(cfg, 0, 1, phase, func(*tracer) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	m := &p.untraced
	if cfg.traced {
		m = &p.traced
	}
	out.problems = append(out.problems, m.bad...)
	all := append(append([]string(nil), p.untraced.digests...), p.traced.digests...)
	for _, d := range all[1:] {
		if d != all[0] {
			out.problems = append(out.problems, fmt.Sprintf("cells at one seed disagree: digests %v", all))
			break
		}
	}
	out.attempted = m.ops
	out.failed = m.last.Failures + m.last.Timeouts
	fmt.Printf("set-up: median %.4f s wall, %.4f s CPU over %d; cells %v s; digest %s\n",
		setupWall, setupCPU, len(setupTimes), m.walls, all[0])

	u := &p.untraced
	r := u.last
	wall := median(u.walls)
	out.e2e["setup_s"] = setupCPU
	out.e2e["cpu_us_per_op"] = us(p.untracedUsage.cpu) / float64(u.ops)
	// A cell's memory does not depend on how fast it ran, so sim-a's peak
	// is taken over the whole run.
	out.e2e["rss_mb"] = peakRSSMB()
	driver := map[string]float64{
		"kops":          float64(r.TotalOps) / wall / 1000,
		"read_p50_us":   float64(r.ReadLatency.Quantile(0.5)) / 1e3,
		"read_p99_us":   float64(r.ReadLatency.Quantile(0.99)) / 1e3,
		"update_p50_us": float64(r.WriteLatency.Quantile(0.5)) / 1e3,
		"update_p99_us": float64(r.WriteLatency.Quantile(0.99)) / 1e3,
	}
	fmt.Printf("wall_s %.4f s (median cell), kops %.3f; simulated read p50 %.1f us p99 %.1f us, update p50 %.1f us p99 %.1f us\n",
		wall, driver["kops"], driver["read_p50_us"], driver["read_p99_us"], driver["update_p50_us"], driver["update_p99_us"])

	if cfg.traced {
		for name, v := range driver {
			out.layer["driver."+name] = v
		}
		if err := processLayer(out.layer, p.tracedUsage, p.untracedUsage, p.traced.ops, u.ops, p.profile); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.traceDir, "sim-a.spans.jsonl")
		if err := p.tracer.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return out, nil
}
