// Command perfbench is the repository's benchmark. It runs one named
// workload in a fresh process and prints, as its last line, one JSON
// object with the correctness verdict, the ops attempted and failed,
// and the metrics: the end-to-end ones by default, the per-layer ones
// with -trace 1. See README.md in this directory for the workloads and
// what each metric means.
//
//	go run . -workload kv-sync-a -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed     int64
	duration time.Duration
	traced   bool
	traceDir string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	e2e               map[string]float64
	layer             map[string]float64
}

var workloads = map[string]func(config) (*outcome, error){
	"kv-sync-a":  runKVSyncA,
	"kv-batch-b": runKVBatchB,
	"sim-a":      runSimA,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: kv-sync-a, kv-batch-b or sim-a")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: run a traced pass and print the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory a traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload kv-sync-a|kv-batch-b|sim-a, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, duration: time.Duration(*seconds) * time.Second, traced: *trace == 1, traceDir: *traceDir}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	specs, values := e2eMetrics, out.e2e
	if cfg.traced {
		specs, values = layerMetrics(), out.layer
	}
	for _, m := range specs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricSpec struct{ name, unit string }

// e2eMetrics are measured with tracing off, and each must hold steady
// from run to run on every workload. The benchmark runs on machines
// whose CPUs other tenants and the hypervisor take away for milliseconds
// at a time, in bursts lasting minutes: there, wall-clock throughput and
// latency moved by a third between runs of unchanged code, while CPU
// time per op moved by a few percent. So throughput and latency are
// printed by every run and carried as per-layer driver metrics, and the
// bounded metrics are CPU time and memory. On the real cluster, memory
// is the peak once set-up is done: the masters never reclaim overwritten
// versions, so the peak at the end of a timed run grows with however
// many updates the run managed, which is throughput again.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
}

// layerMetrics are measured by a traced run; a layer a workload does
// not run reports 0.
func layerMetrics() []metricSpec {
	ms := []metricSpec{
		{"driver.kops", "kop/s"},
		{"driver.read_p50_us", "us"},
		{"driver.read_p99_us", "us"},
		{"driver.update_p50_us", "us"},
		{"driver.update_p99_us", "us"},
		{"driver.op_self_us_mean", "us"},
		{"realnode.client.get_us_p50", "us"},
		{"realnode.client.put_us_p50", "us"},
		{"realnode.client.multiread_us_p50", "us"},
		{"realnode.client.multiwrite_us_p50", "us"},
		{"realnode.client.self_us_mean", "us"},
		{"realnode.client.rpcs_per_op", "count"},
		{"realnode.client.retries", "count"},
		{"realnode.client.refreshes", "count"},
		{"realnode.client.failures", "count"},
		{"transport.rpc_us_p50", "us"},
		{"transport.rpc_us_p99", "us"},
		{"transport.req_bytes_per_op", "B"},
		{"transport.resp_bytes_per_op", "B"},
		{"transport.overhead_us_mean", "us"},
		{"realnode.server.read_us_p50", "us"},
		{"realnode.server.read_us_p99", "us"},
		{"realnode.server.write_us_p50", "us"},
		{"realnode.server.write_us_p99", "us"},
		{"realnode.server.multiread_us_p50", "us"},
		{"realnode.server.multiwrite_us_p50", "us"},
		{"realnode.server.items_per_rpc", "count"},
		{"realnode.server.busy_frac", "frac"},
		{"realnode.server.inflight_max", "count"},
	}
	for _, b := range profBuckets {
		ms = append(ms, metricSpec{"prof." + b, "frac"})
	}
	return append(ms,
		metricSpec{"os.read_syscalls_per_op", "count"},
		metricSpec{"os.write_syscalls_per_op", "count"},
		metricSpec{"os.ctxsw_per_op", "count"},
		metricSpec{"runtime.sched_latency_us_p99", "us"},
		metricSpec{"runtime.mutex_wait_us_per_op", "us"},
		metricSpec{"runtime.gc_cpu_frac", "frac"},
		metricSpec{"runtime.allocs_per_op", "count"},
		metricSpec{"runtime.alloc_bytes_per_op", "B"},
		metricSpec{"trace_overhead_frac", "frac"},
	)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// processLayer fills the per-layer metrics every workload shares: the
// OS and runtime counters over the traced phase, the CPU-profile shares,
// and the tracing overhead against the untraced phase before it.
func processLayer(layer map[string]float64, traced, untraced usage, tracedOps, untracedOps int64, profile []byte) error {
	ops := float64(tracedOps)
	if ops == 0 {
		ops = 1
	}
	layer["os.read_syscalls_per_op"] = float64(traced.syscr) / ops
	layer["os.write_syscalls_per_op"] = float64(traced.syscw) / ops
	layer["os.ctxsw_per_op"] = float64(traced.ctxsw) / ops
	layer["runtime.sched_latency_us_p99"] = us(traced.schedP99)
	layer["runtime.mutex_wait_us_per_op"] = us(traced.mutexWait) / ops
	if traced.totalCPU > 0 {
		layer["runtime.gc_cpu_frac"] = traced.gcCPU / traced.totalCPU
	}
	layer["runtime.allocs_per_op"] = float64(traced.allocObjs) / ops
	layer["runtime.alloc_bytes_per_op"] = float64(traced.allocBytes) / ops
	if untracedOps > 0 && untraced.cpu > 0 {
		perTraced := float64(traced.cpu) / ops
		perUntraced := float64(untraced.cpu) / float64(untracedOps)
		layer["trace_overhead_frac"] = perTraced/perUntraced - 1
	}
	shares, err := profileShares(profile)
	if err != nil {
		return err
	}
	for b, s := range shares {
		layer["prof."+b] = s
	}
	return nil
}
