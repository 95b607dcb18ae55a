package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ramcloud/internal/wire"
)

// tracer records spans in memory during a traced phase: one "op" span
// per operation (from its due time to completion), a child
// "realnode.client.<call>" span around each client call, and under that
// a "transport.rpc" span per RPC the tap saw. Server handlers cannot be
// linked to a client span across the wire, so they are aggregated per
// request kind.
type tracer struct {
	epoch time.Time

	workers []workerTrace // each owned by its load goroutine

	// reg maps a key's hash to the set of workers (a bit mask) whose
	// current client call carries that key; an RPC is linked to its
	// client span through its first key.
	regMu sync.Mutex
	reg   map[uint64]uint64

	mu   sync.Mutex
	rpcs []rpcSpan

	hmu         sync.Mutex
	handlers    [nKinds]Recorder
	handlerN    [nKinds]int64 // requests served
	handlerItem [nKinds]int64 // keys those requests carried
	busyNs      int64
	inflight    atomic.Int64
	inflightMax atomic.Int64
}

type workerTrace struct {
	cur   int // index of the open op in ops
	ops   []opSpan
	calls []callSpan
}

type opSpan struct {
	due, end int64
}

type callSpan struct {
	op         int
	k          kind
	start, end int64
}

type rpcSpan struct {
	k                   kind
	items               int32
	failed              bool
	pipelined           bool // issued through transport.Starter
	start, end          int64
	reqBytes, respBytes int64
	mask                uint64
}

func newTracer(epoch time.Time, workers int) *tracer {
	return &tracer{epoch: epoch, workers: make([]workerTrace, workers), reg: make(map[uint64]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// fnv64a hashes a key for the link registry.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// beginOp opens worker w's next op, due at due.
func (t *tracer) beginOp(w int, due time.Time) {
	wt := &t.workers[w]
	wt.ops = append(wt.ops, opSpan{due: t.at(due)})
	wt.cur = len(wt.ops) - 1
}

// endOp closes worker w's open op.
func (t *tracer) endOp(w int, end time.Time) {
	wt := &t.workers[w]
	wt.ops[wt.cur].end = t.at(end)
}

// enter registers keys as carried by worker w's next client call.
func (t *tracer) enter(w int, keys ...[]byte) {
	bit := uint64(1) << uint(w)
	t.regMu.Lock()
	for _, k := range keys {
		t.reg[fnv64a(k)] |= bit
	}
	t.regMu.Unlock()
}

// leave records worker w's client call of kind k and drops its keys.
func (t *tracer) leave(w int, k kind, start, end int64, keys ...[]byte) {
	wt := &t.workers[w]
	wt.calls = append(wt.calls, callSpan{op: wt.cur, k: k, start: start, end: end})
	bit := uint64(1) << uint(w)
	t.regMu.Lock()
	for _, key := range keys {
		h := fnv64a(key)
		if m := t.reg[h] &^ bit; m != 0 {
			t.reg[h] = m
		} else {
			delete(t.reg, h)
		}
	}
	t.regMu.Unlock()
}

// rpc records one RPC the tap timed.
func (t *tracer) rpc(k kind, n int, key []byte, pipelined bool, req, resp wire.Message, err error, start, end int64) {
	s := rpcSpan{k: k, items: int32(n), failed: err != nil, pipelined: pipelined, start: start, end: end,
		reqBytes: int64(req.WireSize())}
	if resp != nil {
		s.respBytes = int64(resp.WireSize())
	}
	h := fnv64a(key)
	t.regMu.Lock()
	s.mask = t.reg[h]
	t.regMu.Unlock()
	t.mu.Lock()
	t.rpcs = append(t.rpcs, s)
	t.mu.Unlock()
}

func (t *tracer) enterHandler() {
	n := t.inflight.Add(1)
	for {
		m := t.inflightMax.Load()
		if n <= m || t.inflightMax.CompareAndSwap(m, n) {
			return
		}
	}
}

// handled records one served request of kind k carrying n keys.
func (t *tracer) handled(k kind, n int, d time.Duration) {
	t.inflight.Add(-1)
	t.hmu.Lock()
	t.handlers[k].Record(d, 1)
	t.handlerN[k]++
	t.handlerItem[k] += int64(n)
	t.busyNs += int64(d)
	t.hmu.Unlock()
}

// parentOf links rpc r to the client span that issued it: a span of a
// worker in r's mask that was open when r started. It returns the
// worker and call index, or -1.
func (t *tracer) parentOf(r *rpcSpan) (int, int) {
	for w := range t.workers {
		if r.mask&(1<<uint(w)) == 0 {
			continue
		}
		calls := t.workers[w].calls
		i := sort.Search(len(calls), func(i int) bool { return calls[i].end >= r.start })
		if i < len(calls) && calls[i].start <= r.start {
			return w, i
		}
	}
	return -1, -1
}

// selfTimes returns the mean self time of op spans (the op minus its
// client calls) and of client spans (the call minus the union of its
// RPCs), the layer boundaries the benchmark can see from outside.
func (t *tracer) selfTimes() (opSelf, callSelf time.Duration) {
	children := make([][][]rpcSpan, len(t.workers))
	for w := range t.workers {
		children[w] = make([][]rpcSpan, len(t.workers[w].calls))
	}
	for i := range t.rpcs {
		if w, c := t.parentOf(&t.rpcs[i]); w >= 0 {
			children[w][c] = append(children[w][c], t.rpcs[i])
		}
	}
	var opSum, callSum, nOps, nCalls int64
	for w := range t.workers {
		wt := &t.workers[w]
		inCalls := make([]int64, len(wt.ops))
		for c, cs := range wt.calls {
			d := cs.end - cs.start
			inCalls[cs.op] += d
			callSum += d - unionNs(children[w][c])
			nCalls++
		}
		for o, op := range wt.ops {
			if op.end == 0 {
				continue
			}
			opSum += op.end - op.due - inCalls[o]
			nOps++
		}
	}
	if nOps > 0 {
		opSelf = time.Duration(opSum / nOps)
	}
	if nCalls > 0 {
		callSelf = time.Duration(callSum / nCalls)
	}
	return opSelf, callSelf
}

// unionNs is the length of the union of the spans' intervals.
func unionNs(spans []rpcSpan) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range spans {
		if !open || s.start > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = s.start, s.end, true
		} else if s.end > curEnd {
			curEnd = s.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write stores every span as one JSON object per line: id, parent (0 for
// none), op id, name, start and end in nanoseconds since the run began.
// Handler aggregates are summarized by the per-layer metrics instead.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	id := int64(0)
	callIDs := make([][]int64, len(t.workers))
	opIDs := make([][]int64, len(t.workers))
	for w := range t.workers {
		wt := &t.workers[w]
		opIDs[w] = make([]int64, len(wt.ops))
		for o, op := range wt.ops {
			id++
			opIDs[w][o] = id
			fmt.Fprintf(bw, `{"id":%d,"parent":0,"op":%d,"name":"op","worker":%d,"start":%d,"end":%d}`+"\n",
				id, id, w, op.due, op.end)
		}
		callIDs[w] = make([]int64, len(wt.calls))
		for c, cs := range wt.calls {
			id++
			callIDs[w][c] = id
			op := opIDs[w][cs.op]
			fmt.Fprintf(bw, `{"id":%d,"parent":%d,"op":%d,"name":"realnode.client.%s","start":%d,"end":%d}`+"\n",
				id, op, op, clientCallNames[cs.k], cs.start, cs.end)
		}
	}
	for i := range t.rpcs {
		r := &t.rpcs[i]
		id++
		parent, op := int64(0), int64(0)
		if w, c := t.parentOf(r); w >= 0 {
			parent, op = callIDs[w][c], opIDs[w][t.workers[w].calls[c].op]
		}
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"op":%d,"name":"transport.rpc","kind":"%s","items":%d,"pipelined":%t,"failed":%t,"start":%d,"end":%d}`+"\n",
			id, parent, op, kindNames[r.k], r.items, r.pipelined, r.failed, r.start, r.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clientCallNames names the realnode.Client call that issues each kind.
var clientCallNames = [nKinds]string{"get", "put", "multiread", "multiwrite"}
