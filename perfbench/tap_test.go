package main

import (
	"context"
	"testing"
	"time"

	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// plainTransport's connections cannot pipeline.
type plainTransport struct{}

type plainConn struct{}

func (plainTransport) Dial(string) (transport.Conn, error) { return plainConn{}, nil }
func (plainTransport) Listen(string, transport.Handler) (transport.Listener, error) {
	return nil, transport.ErrClosed
}
func (plainConn) Call(context.Context, wire.Message) (wire.Message, error) { return nil, nil }
func (plainConn) Close() error                                             { return nil }

// TestTapKeepsPipelining checks that a tapped TCP connection is still a
// transport.Starter, so the client keeps pipelining through the tap,
// and that a connection without Start does not gain one.
func TestTapKeepsPipelining(t *testing.T) {
	c, err := bootCluster(newDataset(1, 2000, 64), true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	conn, err := c.tap.Dial(c.servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(transport.Starter); !ok {
		t.Fatal("tapped TCP connection lost transport.Starter")
	}
	plain, _ := newTap(plainTransport{}).Dial("x")
	if _, ok := plain.(transport.Starter); ok {
		t.Fatal("tap added Start to a connection that has none")
	}
}

// TestTracedMultiReadStaysPipelined loads a small cluster, then checks
// that a traced MultiRead spanning both masters sends one pipelined RPC
// per master with both in flight at once, that every read returns its
// record's bytes, and that the masters' counters match the tap's.
func TestTracedMultiReadStaysPipelined(t *testing.T) {
	data := newDataset(2, 2000, 64)
	c, err := bootCluster(data, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	if err := c.load(2); err != nil {
		t.Fatal(err)
	}
	if shares := c.masterShares(); shares[0] == 0 || shares[1] == 0 {
		t.Fatalf("keys did not spread over both masters: %v", shares)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = data.key(nil, i)
	}
	tr := newTracer(time.Now(), 1)
	c.tap.tr.Store(tr)
	tr.beginOp(0, time.Now())
	tr.enter(0, keys...)
	start := tr.now()
	got := c.client.MultiRead(c.table, keys)
	tr.leave(0, kMultiRead, start, tr.now(), keys...)
	tr.endOp(0, time.Now())
	c.tap.tr.Store(nil)

	for i, r := range got {
		if r.Err != nil || string(r.Value) != string(data.value(nil, i)) {
			t.Fatalf("key %d: err %v, value mismatch %t", i, r.Err, string(r.Value) != string(data.value(nil, i)))
		}
	}
	if len(tr.rpcs) != masters {
		t.Fatalf("%d RPCs, want one per master", len(tr.rpcs))
	}
	a, b := tr.rpcs[0], tr.rpcs[1]
	for _, r := range tr.rpcs {
		if !r.pipelined || r.k != kMultiRead {
			t.Errorf("rpc %+v: want a pipelined multiread", r)
		}
		if w, call := tr.parentOf(&r); w != 0 || call != 0 {
			t.Errorf("rpc linked to worker %d call %d, want 0/0", w, call)
		}
	}
	if a.start >= b.end || b.start >= a.end {
		t.Errorf("RPCs [%d,%d] and [%d,%d] were not in flight together", a.start, a.end, b.start, b.end)
	}
	if problems := c.verify(); len(problems) != 0 {
		t.Errorf("verify: %v", problems)
	}
}
