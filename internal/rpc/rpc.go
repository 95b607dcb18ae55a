// Package rpc layers request/response semantics over the simulated fabric.
// Every node (server, coordinator, client) owns one Endpoint. Outbound
// calls are matched to responses by RPC id through futures; inbound
// requests land in a queue serviced by the node's dispatch proc.
//
// Message sizes on the wire are computed from the real binary encoding
// (wire.Message.WireSize), so transfer timing matches what a physical
// network would see. Messages travel the whole path as wire.Message — no
// `any` boxing, no wrapper allocation per send.
package rpc

import (
	"fmt"

	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// Caller is the outbound-RPC surface the client's operation core runs
// on: issue a request and correlate its response, with or without a
// deadline. Endpoint is the simulated-fabric implementation; extracting
// the interface keeps the op core free of any simnet hard-wiring, so an
// alternative substrate only has to supply these four methods.
type Caller interface {
	// Node returns the caller's fabric address.
	Node() simnet.NodeID
	// Sent returns the number of requests issued.
	Sent() uint64
	// StartCall issues a request without blocking and returns the
	// in-flight handle.
	StartCall(to simnet.NodeID, msg wire.Message) Call
	// CallTimeout issues a request and waits up to d for its response.
	CallTimeout(p *sim.Proc, to simnet.NodeID, msg wire.Message, d sim.Duration) (wire.Message, bool)
}

// Request is an inbound RPC awaiting service.
type Request struct {
	From      simnet.NodeID
	RPCID     uint64
	Msg       wire.Message
	ArrivedAt sim.Time
}

// Endpoint is one node's RPC port.
type Endpoint struct {
	eng  *sim.Engine
	net  *simnet.Network
	node simnet.NodeID

	nextID  uint64
	pending map[uint64]*sim.Future[wire.Message]

	// Inbound holds requests awaiting the dispatch proc.
	Inbound *sim.Queue[Request]

	sent     uint64
	received uint64
}

// NewEndpoint attaches a node to the fabric and returns its endpoint.
func NewEndpoint(e *sim.Engine, net *simnet.Network, node simnet.NodeID) *Endpoint {
	ep := &Endpoint{
		eng:     e,
		net:     net,
		node:    node,
		pending: make(map[uint64]*sim.Future[wire.Message]),
		Inbound: sim.NewQueue[Request](e),
	}
	net.Attach(node, ep.deliver)
	return ep
}

// Node returns the endpoint's fabric address.
func (ep *Endpoint) Node() simnet.NodeID { return ep.node }

// Sent returns the number of requests issued.
func (ep *Endpoint) Sent() uint64 { return ep.sent }

// Received returns the number of requests received.
func (ep *Endpoint) Received() uint64 { return ep.received }

func (ep *Endpoint) deliver(m simnet.Message) {
	if m.Resp {
		f, ok := ep.pending[m.RPCID]
		if !ok {
			return // late response after timeout: dropped
		}
		delete(ep.pending, m.RPCID)
		f.Set(m.Payload)
		return
	}
	ep.received++
	ep.Inbound.Push(Request{From: m.From, RPCID: m.RPCID, Msg: m.Payload, ArrivedAt: ep.eng.Now()})
}

// send issues a request, registering a future for its response.
func (ep *Endpoint) send(to simnet.NodeID, msg wire.Message) (uint64, *sim.Future[wire.Message]) {
	ep.nextID++
	id := ep.nextID
	f := sim.NewFuture[wire.Message](ep.eng)
	ep.pending[id] = f
	ep.sent++
	ep.net.Send(simnet.Message{From: ep.node, To: to, Size: msg.WireSize(), RPCID: id, Payload: msg})
	return id, f
}

// AsyncCall issues a request and returns a future for the response. Use
// for fan-out (replication) where the caller gathers several acks.
func (ep *Endpoint) AsyncCall(to simnet.NodeID, msg wire.Message) *sim.Future[wire.Message] {
	_, f := ep.send(to, msg)
	return f
}

// Call is one in-flight request issued with Start. Unlike the bare future
// of AsyncCall it remembers its RPC id, so an abandoned call (timeout) can
// drop its pending entry and a late response is discarded instead of
// resolving a stale future.
type Call struct {
	ep *Endpoint
	id uint64
	f  *sim.Future[wire.Message]
}

// Start issues a request without blocking and returns a handle the caller
// waits on later. This is the client-side async primitive: the send costs
// no simulated time beyond NIC serialization, and the completion wakes
// whichever proc is parked in Wait/WaitTimeout.
func (ep *Endpoint) Start(to simnet.NodeID, msg wire.Message) *Call {
	c := ep.StartCall(to, msg)
	return &c
}

// StartCall is Start returning the handle by value, for callers that embed
// it (the client's op core keeps its in-flight attempt allocation-free
// this way).
func (ep *Endpoint) StartCall(to simnet.NodeID, msg wire.Message) Call {
	id, f := ep.send(to, msg)
	return Call{ep: ep, id: id, f: f}
}

// Done reports whether the response has arrived.
func (c *Call) Done() bool { return c.f.IsSet() }

// ResolvedAt returns the virtual time the response arrived, or zero while
// the call is still in flight. Lazy reapers (async clients) use it to
// record latency to the response's arrival rather than to the reap.
func (c *Call) ResolvedAt() sim.Time { return c.f.ResolvedAt() }

// Wait blocks until the response arrives. It never gives up; use
// WaitTimeout when the peer may be dead.
func (c *Call) Wait(p *sim.Proc) wire.Message { return c.f.Get(p) }

// WaitTimeout blocks up to d for the response. On timeout the pending
// entry is dropped so a late response is discarded, exactly like
// CallTimeout.
func (c *Call) WaitTimeout(p *sim.Proc, d sim.Duration) (wire.Message, bool) {
	resp, ok := c.f.GetTimeout(p, d)
	if !ok {
		delete(c.ep.pending, c.id)
	}
	return resp, ok
}

// Call issues a request and blocks until the response arrives. It never
// gives up; use CallTimeout when the peer may be dead.
func (ep *Endpoint) Call(p *sim.Proc, to simnet.NodeID, msg wire.Message) wire.Message {
	return ep.AsyncCall(to, msg).Get(p)
}

// CallTimeout issues a request and waits up to d for the response. On
// timeout the pending entry is dropped so a late response is discarded.
func (ep *Endpoint) CallTimeout(p *sim.Proc, to simnet.NodeID, msg wire.Message, d sim.Duration) (wire.Message, bool) {
	c := ep.StartCall(to, msg)
	return c.WaitTimeout(p, d)
}

// Reply sends a response for an inbound request.
func (ep *Endpoint) Reply(req Request, msg wire.Message) {
	ep.net.Send(simnet.Message{From: ep.node, To: req.From, Size: msg.WireSize(), RPCID: req.RPCID, Resp: true, Payload: msg})
}

// WaitAll blocks until every future resolves, returning the responses in
// order. Used by the replication fan-out ("wait for acknowledgements from
// all backups").
func WaitAll(p *sim.Proc, futures []*sim.Future[wire.Message]) []wire.Message {
	out := make([]wire.Message, len(futures))
	for i, f := range futures {
		out[i] = f.Get(p)
	}
	return out
}

// MustStatus extracts a status from a response message known to carry one.
func MustStatus(msg wire.Message) wire.Status {
	if r, ok := msg.(wire.Response); ok {
		return r.RespStatus()
	}
	panic(fmt.Sprintf("rpc: message %T carries no status", msg))
}
