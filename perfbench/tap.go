package main

import (
	"context"
	"sync/atomic"
	"time"

	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// kind classifies the data-plane requests the benchmark issues; every
// other request (enlistment, tablet maps, pings) passes through untouched.
type kind int8

const (
	kRead kind = iota
	kWrite
	kMultiRead
	kMultiWrite
	nKinds
	kOther kind = -1
)

var kindNames = [nKinds]string{"read", "write", "multiread", "multiwrite"}

// classify returns msg's kind, its item count and its first key.
func classify(msg wire.Message) (kind, int, []byte) {
	switch m := msg.(type) {
	case *wire.ReadReq:
		return kRead, 1, m.Key
	case *wire.WriteReq:
		return kWrite, 1, m.Key
	case *wire.MultiReadReq:
		if len(m.Items) > 0 {
			return kMultiRead, len(m.Items), m.Items[0].Key
		}
		return kMultiRead, 0, nil
	case *wire.MultiWriteReq:
		if len(m.Items) > 0 {
			return kMultiWrite, len(m.Items), m.Items[0].Key
		}
		return kMultiWrite, 0, nil
	}
	return kOther, 0, nil
}

// tap wraps a transport.Interface from outside the program. Dialed
// connections count every data-plane request they send, so the masters'
// counters can be checked against them; while a tracer is installed they
// also time each RPC, and handlers registered through Listen time each
// request they serve.
type tap struct {
	inner transport.Interface
	tr    atomic.Pointer[tracer]

	items [nKinds]atomic.Uint64 // keys the requests sent carried, by kind
}

func newTap(inner transport.Interface) *tap { return &tap{inner: inner} }

// Dial wraps the connection, keeping its pipelining: when the inner
// connection is a transport.Starter, so is the wrapper.
func (t *tap) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	tc := tapConn{t: t, inner: c}
	if st, ok := c.(transport.Starter); ok {
		return &tapStarterConn{tapConn: tc, st: st}, nil
	}
	return &tc, nil
}

// Listen registers h behind a timing wrapper.
func (t *tap) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	return t.inner.Listen(addr, tapHandler{t: t, inner: h})
}

// sent counts one outgoing request and returns its kind.
func (t *tap) sent(msg wire.Message) (kind, int, []byte) {
	k, n, key := classify(msg)
	if k != kOther {
		t.items[k].Add(uint64(n))
	}
	return k, n, key
}

type tapConn struct {
	t     *tap
	inner transport.Conn
}

func (c *tapConn) Call(ctx context.Context, msg wire.Message) (wire.Message, error) {
	k, n, key := c.t.sent(msg)
	tr := c.t.tr.Load()
	if tr == nil || k == kOther {
		return c.inner.Call(ctx, msg)
	}
	start := tr.now()
	resp, err := c.inner.Call(ctx, msg)
	tr.rpc(k, n, key, false, msg, resp, err, start, tr.now())
	return resp, err
}

func (c *tapConn) Close() error { return c.inner.Close() }

type tapStarterConn struct {
	tapConn
	st transport.Starter
}

func (c *tapStarterConn) Start(ctx context.Context, msg wire.Message) (transport.PendingCall, error) {
	k, n, key := c.t.sent(msg)
	tr := c.t.tr.Load()
	if tr == nil || k == kOther {
		return c.st.Start(ctx, msg)
	}
	start := tr.now()
	pc, err := c.st.Start(ctx, msg)
	if err != nil {
		tr.rpc(k, n, key, true, msg, nil, err, start, tr.now())
		return nil, err
	}
	return &tapPending{tr: tr, inner: pc, k: k, n: n, key: key, msg: msg, start: start}, nil
}

// tapPending times Start to Wait: the span ends when the caller collects
// the response, which is when the RPC stops blocking it.
type tapPending struct {
	tr    *tracer
	inner transport.PendingCall
	k     kind
	n     int
	key   []byte
	msg   wire.Message
	start int64
}

func (p *tapPending) Wait(ctx context.Context) (wire.Message, error) {
	resp, err := p.inner.Wait(ctx)
	p.tr.rpc(p.k, p.n, p.key, true, p.msg, resp, err, p.start, p.tr.now())
	return resp, err
}

type tapHandler struct {
	t     *tap
	inner transport.Handler
}

func (h tapHandler) ServeRPC(remote string, msg wire.Message) wire.Message {
	tr := h.t.tr.Load()
	if tr == nil {
		return h.inner.ServeRPC(remote, msg)
	}
	k, n, _ := classify(msg)
	if k == kOther {
		return h.inner.ServeRPC(remote, msg)
	}
	tr.enterHandler()
	start := time.Now()
	resp := h.inner.ServeRPC(remote, msg)
	tr.handled(k, n, time.Since(start))
	return resp
}
