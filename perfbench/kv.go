package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"
)

// Real-cluster workloads. Both boot a coordinator and two masters on
// loopback TCP with default settings and drive them through one client
// (one connection per master) from two closed-loop load goroutines, the
// CPU count of the machine the sizes were chosen on.
const (
	kvWorkers  = 2
	valueBytes = 1024

	syncRecords  = 10_000
	syncReadFrac = 0.5
	syncSetups   = 15 // set-ups per run; setup_s is their median

	batchRecords  = 250_000
	batchReadFrac = 0.95
	batchSize     = 32
	batchSetups   = 3 // fewer: each loads 256 MB
)

var errWrongValue = errors.New("value differs from the record's payload")

// kvPhase is what one phase of a real-cluster workload measured.
type kvPhase struct {
	win       windows // per-op latency, failures included, and CPU
	attempted int64
	failed    int64
	wrong     int64 // reads that returned other bytes
	wall      time.Duration
}

func (p *kvPhase) completed() int64 { return p.attempted - p.failed }

// kvRun is the shared skeleton: set up, run the phases, check the
// cluster, and derive the metrics.
func kvRun(cfg config, name string, records, setups int, phase func(c *cluster) func(time.Duration, *tracer) kvPhase) (*outcome, error) {
	data := newDataset(cfg.seed, records, valueBytes)
	c, setupTimes, err := setUp(setups, data, cfg.traced, kvWorkers)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	setupWall, setupCPU := setupSeconds(setupTimes)
	setupRSS := peakRSSMB()
	fmt.Printf("set-up: median %.4f s wall, %.4f s CPU over %d; peak RSS %.1f MB; objects per master %v\n",
		setupWall, setupCPU, len(setupTimes), setupRSS, c.masterShares())

	stats := c.client.Stats()
	var retries, refreshes, failures uint64
	p, err := runPhases(cfg, time.Second, kvWorkers, phase(c), func(tr *tracer) {
		if tr != nil {
			retries, refreshes, failures = stats.Retries.Load(), stats.Refreshes.Load(), stats.Failures.Load()
		} else {
			retries = stats.Retries.Load() - retries
			refreshes = stats.Refreshes.Load() - refreshes
			failures = stats.Failures.Load() - failures
		}
		c.tap.tr.Store(tr)
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	out.problems = c.verify()
	m := &p.untraced
	if cfg.traced {
		m = &p.traced
	}
	out.attempted, out.failed = m.attempted, m.failed
	if m.wrong > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d reads returned the wrong value", m.wrong))
	}
	fmt.Printf("attempted %d, failed %d\n", m.attempted, m.failed)

	u := p.untraced
	driver := u.latencies()
	out.e2e["setup_s"] = setupCPU
	out.e2e["cpu_us_per_op"] = u.win.median(func(w *window) (float64, bool) {
		return us(w.cpu) / float64(w.ops), w.ops > 0
	})
	out.e2e["rss_mb"] = setupRSS
	driver["kops"] = u.win.median(func(w *window) (float64, bool) {
		return float64(w.ops) / windowWidth.Seconds() / 1000, true
	})
	fmt.Printf("measured %.3f s, kops %.3f kop/s (median of %d one-second windows), peak RSS %.1f MB\n",
		u.wall.Seconds(), driver["kops"], len(u.win.w), peakRSSMB())
	for _, name := range latencyNames {
		fmt.Printf("%s %.1f us (median of %d one-second windows)\n", name, driver[name], len(u.win.w))
	}
	reads, updates := u.win.total()
	report("read", &reads)
	report("update", &updates)

	if cfg.traced {
		layer := out.layer
		for name, v := range driver {
			layer["driver."+name] = v
		}
		layer["realnode.client.retries"] = float64(retries)
		layer["realnode.client.refreshes"] = float64(refreshes)
		layer["realnode.client.failures"] = float64(failures)
		kvLayer(layer, &p.traced, p.tracer, p.tracedUsage.wall)
		if err := processLayer(layer, p.tracedUsage, p.untracedUsage, p.traced.completed(), u.completed(), p.profile); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.traceDir, name+".spans.jsonl")
		if err := p.tracer.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return out, nil
}

var latencyNames = []string{"read_p50_us", "read_p99_us", "update_p50_us", "update_p99_us"}

// latencies are the phase's latency percentiles, each the median over
// its windows of the window's percentile, keyed by latencyNames.
func (p *kvPhase) latencies() map[string]float64 {
	q := func(rec func(*window) *Recorder, q float64) float64 {
		return p.win.median(func(w *window) (float64, bool) {
			r := rec(w)
			return us(r.Quantile(q)), r.Count() > 0
		})
	}
	reads := func(w *window) *Recorder { return &w.reads }
	updates := func(w *window) *Recorder { return &w.updates }
	return map[string]float64{
		"read_p50_us":   q(reads, 0.50),
		"read_p99_us":   q(reads, 0.99),
		"update_p50_us": q(updates, 0.50),
		"update_p99_us": q(updates, 0.99),
	}
}

// report prints a latency line: median, the highest percentile with at
// least ten samples beyond it, and the sample count.
func report(name string, r *Recorder) {
	tail := TailPercentile(r.Count())
	fmt.Printf("%s: n=%d p50=%.1fus p%g=%.1fus\n", name, r.Count(),
		us(r.Quantile(0.5)), tail, us(r.Quantile(tail/100)))
}

// kvLayer derives the per-layer metrics of the client, transport and
// server from the traced phase's spans.
func kvLayer(layer map[string]float64, m *kvPhase, tr *tracer, wall time.Duration) {
	ops := float64(m.completed())
	if ops == 0 {
		ops = 1
	}
	opSelf, callSelf := tr.selfTimes()
	layer["driver.op_self_us_mean"] = us(opSelf)
	layer["realnode.client.self_us_mean"] = us(callSelf)

	var calls [nKinds]Recorder
	for w := range tr.workers {
		for _, cs := range tr.workers[w].calls {
			calls[cs.k].Record(time.Duration(cs.end-cs.start), 1)
		}
	}
	for k := kind(0); k < nKinds; k++ {
		layer["realnode.client."+clientCallNames[k]+"_us_p50"] = us(calls[k].Quantile(0.5))
	}

	var rpcs Recorder
	var reqBytes, respBytes int64
	for _, r := range tr.rpcs {
		rpcs.Record(time.Duration(r.end-r.start), 1)
		reqBytes += r.reqBytes
		respBytes += r.respBytes
	}
	layer["realnode.client.rpcs_per_op"] = float64(rpcs.Count()) / ops
	layer["transport.rpc_us_p50"] = us(rpcs.Quantile(0.5))
	layer["transport.rpc_us_p99"] = us(rpcs.Quantile(0.99))
	layer["transport.req_bytes_per_op"] = float64(reqBytes) / ops
	layer["transport.resp_bytes_per_op"] = float64(respBytes) / ops

	var served, items int64
	for k := kind(0); k < nKinds; k++ {
		served += tr.handlerN[k]
		items += tr.handlerItem[k]
	}
	if served > 0 {
		handlerMean := float64(tr.busyNs) / float64(served)
		layer["transport.overhead_us_mean"] = us(rpcs.Mean()) - handlerMean/1e3
		layer["realnode.server.items_per_rpc"] = float64(items) / float64(served)
	}
	layer["realnode.server.read_us_p50"] = us(tr.handlers[kRead].Quantile(0.5))
	layer["realnode.server.read_us_p99"] = us(tr.handlers[kRead].Quantile(0.99))
	layer["realnode.server.write_us_p50"] = us(tr.handlers[kWrite].Quantile(0.5))
	layer["realnode.server.write_us_p99"] = us(tr.handlers[kWrite].Quantile(0.99))
	layer["realnode.server.multiread_us_p50"] = us(tr.handlers[kMultiRead].Quantile(0.5))
	layer["realnode.server.multiwrite_us_p50"] = us(tr.handlers[kMultiWrite].Quantile(0.5))
	layer["realnode.server.busy_frac"] = float64(tr.busyNs) / (float64(wall) * masters)
	layer["realnode.server.inflight_max"] = float64(tr.inflightMax.Load())
}

// runKVBatchB: a closed loop of 32-op rounds, YCSB-B over a data set far
// larger than the CPU caches. Each round's reads go out as one MultiRead
// and its updates as one MultiWrite; every op in the round is charged
// the round's latency.
func runKVBatchB(cfg config) (*outcome, error) {
	rngs := workerRNGs(cfg.seed)
	return kvRun(cfg, "kv-batch-b", batchRecords, batchSetups, func(c *cluster) func(time.Duration, *tracer) kvPhase {
		type roundBufs struct {
			keys, vals, readKeys, writeKeys, writeVals [][]byte
			readRecs                                   []int
			want                                       []byte
		}
		bufs := make([]roundBufs, kvWorkers)
		for w := range bufs {
			b := &bufs[w]
			for i := 0; i < batchSize; i++ {
				b.keys = append(b.keys, make([]byte, 0, keyLen))
				b.vals = append(b.vals, make([]byte, valueBytes))
			}
		}
		return func(dur time.Duration, tr *tracer) kvPhase {
			return runClosed(dur, kvWorkers, func(w int) round {
				b, rng := &bufs[w], rngs[w]
				b.readKeys, b.writeKeys, b.writeVals, b.readRecs = b.readKeys[:0], b.writeKeys[:0], b.writeVals[:0], b.readRecs[:0]
				for i := 0; i < batchSize; i++ {
					rec := rng.Intn(batchRecords)
					b.keys[i] = c.data.key(b.keys[i], rec)
					if rng.Float64() < batchReadFrac {
						b.readKeys = append(b.readKeys, b.keys[i])
						b.readRecs = append(b.readRecs, rec)
					} else {
						b.vals[i] = c.data.value(b.vals[i], rec)
						b.writeKeys = append(b.writeKeys, b.keys[i])
						b.writeVals = append(b.writeVals, b.vals[i])
					}
				}
				r := round{start: time.Now(), reads: len(b.readKeys), updates: len(b.writeKeys)}
				if tr != nil {
					tr.beginOp(w, r.start)
				}
				if len(b.readKeys) > 0 {
					var t0 int64
					if tr != nil {
						tr.enter(w, b.readKeys...)
						t0 = tr.now()
					}
					got := c.client.MultiRead(c.table, b.readKeys)
					if tr != nil {
						tr.leave(w, kMultiRead, t0, tr.now(), b.readKeys...)
					}
					for i, res := range got {
						if res.Err != nil {
							r.readsFailed++
							continue
						}
						b.want = c.data.value(b.want, b.readRecs[i])
						if !bytes.Equal(res.Value, b.want) {
							r.wrong++
							r.readsFailed++
						}
					}
				}
				if len(b.writeKeys) > 0 {
					var t0 int64
					if tr != nil {
						tr.enter(w, b.writeKeys...)
						t0 = tr.now()
					}
					got := c.client.MultiWrite(c.table, b.writeKeys, b.writeVals)
					if tr != nil {
						tr.leave(w, kMultiWrite, t0, tr.now(), b.writeKeys...)
					}
					for _, res := range got {
						if res.Err != nil {
							r.updatesFailed++
						}
					}
				}
				r.end = time.Now()
				if tr != nil {
					tr.endOp(w, r.end)
				}
				return r
			})
		}
	})
}

// workerRNGs gives each load goroutine its own stream from the seed.
func workerRNGs(seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, kvWorkers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed*kvWorkers + int64(w)))
	}
	return rngs
}

// scratch is one load goroutine's reusable buffers.
type scratch struct {
	key, want []byte
}

// runKVSyncA: a closed loop of single synchronous Get or Put calls,
// YCSB-A over a small, cache-resident data set.
func runKVSyncA(cfg config) (*outcome, error) {
	rngs := workerRNGs(cfg.seed)
	return kvRun(cfg, "kv-sync-a", syncRecords, syncSetups, func(c *cluster) func(time.Duration, *tracer) kvPhase {
		bufs := make([]scratch, kvWorkers)
		return func(dur time.Duration, tr *tracer) kvPhase {
			return runClosed(dur, kvWorkers, func(w int) round {
				b, rng := &bufs[w], rngs[w]
				rec := rng.Intn(syncRecords)
				read := rng.Float64() < syncReadFrac
				b.key = c.data.key(b.key, rec)
				if !read {
					b.want = c.data.value(b.want, rec)
				}
				r := round{start: time.Now()}
				var start int64
				if tr != nil {
					tr.beginOp(w, r.start)
					tr.enter(w, b.key)
					start = tr.now()
				}
				var err error
				var got []byte
				k := kWrite
				if read {
					k = kRead
					r.reads = 1
					got, _, err = c.client.Get(c.table, b.key)
				} else {
					r.updates = 1
					_, err = c.client.Put(c.table, b.key, b.want)
				}
				r.end = time.Now()
				if tr != nil {
					tr.leave(w, k, start, tr.now(), b.key)
					tr.endOp(w, r.end)
				}
				switch {
				case err != nil && read:
					r.readsFailed = 1
				case err != nil:
					r.updatesFailed = 1
				case read:
					b.want = c.data.value(b.want, rec)
					if !bytes.Equal(got, b.want) {
						r.wrong, r.readsFailed = 1, 1
					}
				}
				return r
			})
		}
	})
}
