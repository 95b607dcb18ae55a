// Package simnet models the cluster fabric: an Infiniband-20G-class network
// with per-NIC transmit serialization and a fixed propagation delay. The
// paper uses RAMCloud's Infiniband transport exclusively; the network is
// deliberately fast enough never to be the primary bottleneck (the authors
// study network effects in a companion paper), but transfer times matter
// during crash recovery when whole segments cross the wire.
package simnet

import (
	"fmt"

	"ramcloud/internal/metrics"
	"ramcloud/internal/sim"
	"ramcloud/internal/wire"
)

// NodeID identifies an endpoint on the fabric.
type NodeID int

// Message is one datagram. Size is the on-wire size in bytes (computed from
// the wire encoding of the payload); Payload is delivered by reference to
// keep the simulator fast. RPCID and Resp are the RPC layer's correlation
// header, carried as plain fields so a send costs no wrapper allocation or
// `any` boxing on the fast path.
type Message struct {
	From    NodeID
	To      NodeID
	Size    int
	RPCID   uint64
	Resp    bool
	Payload wire.Message
}

// Handler receives delivered messages in engine (callback) context. It must
// not block; typically it pushes into a sim.Queue serviced by a dispatch
// proc.
type Handler func(msg Message)

// Config sets fabric characteristics.
type Config struct {
	PropagationDelay sim.Duration // one-way latency, switch included
	Bandwidth        float64      // per-NIC bytes/second
}

// DefaultConfig models Infiniband-20G (~2.3 GB/s usable, ~2.3 us one-way).
func DefaultConfig() Config {
	return Config{
		PropagationDelay: 2300 * sim.Nanosecond,
		Bandwidth:        2.3e9,
	}
}

type nic struct {
	// msgSeq counts messages sent by this node; it keys same-instant
	// delivery ordering (see deliverySeq).
	msgSeq uint64

	txBusyUntil sim.Time
	txBytes     metrics.Series
	rxBytes     metrics.Series
	txBusy      metrics.Series // busy ns per second
}

// deliverySeq builds the sequence key for one delivery: deliveries that
// land at the same instant on the same node execute in (sender node,
// per-sender send order) order, whatever order the sends happened in.
// The sender id occupies bits 62..31 and the per-sender counter bits
// 30..0 (2^31 sends per node outlasts any simulated run by orders of
// magnitude).
func deliverySeq(from NodeID, counter uint64) uint64 {
	return sim.KeyedSeqBit | uint64(uint32(from))<<31 | (counter & 0x7FFFFFFF)
}

// Network is the shared fabric.
type Network struct {
	eng *sim.Engine
	cfg Config

	nics     map[NodeID]*nic
	handlers map[NodeID]Handler
	down     map[NodeID]bool

	// free is a freelist of delivery records. Each record's closure is
	// created once and rescheduled forever after, so a steady-state send
	// allocates nothing.
	free *delivery

	delivered metrics.Counter
	dropped   metrics.Counter

	// fault holds injected fault rules (faults.go); nil until the first
	// rule is installed, so the healthy fast path pays one nil check.
	fault *faultState
}

// delivery is one in-flight message's arrival event.
type delivery struct {
	n    *Network
	msg  Message
	at   sim.Time
	fn   func() // bound to run once at construction; reused across sends
	next *delivery
}

// run delivers the message and returns the record to the freelist.
func (d *delivery) run() {
	n := d.n
	msg := d.msg
	at := d.at
	d.msg = Message{} // drop the payload reference before pooling
	d.next = n.free
	n.free = d
	if n.down[msg.To] || n.down[msg.From] {
		n.dropped.Inc()
		return
	}
	spreadBytes(&n.nics[msg.To].rxBytes, at, at, float64(msg.Size))
	n.delivered.Inc()
	n.handlers[msg.To](msg)
}

// newDelivery pops a record from the freelist or makes one.
func (n *Network) newDelivery() *delivery {
	d := n.free
	if d == nil {
		d = &delivery{n: n}
		d.fn = d.run
		return d
	}
	n.free = d.next
	d.next = nil
	return d
}

// New returns an empty fabric.
func New(e *sim.Engine, cfg Config) *Network {
	if cfg.Bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	// Deliveries are keyed events, which must land strictly after the
	// send; a small message's transmit time rounds to zero, so the
	// propagation delay alone has to carry it into the future.
	if cfg.PropagationDelay <= 0 {
		panic("simnet: propagation delay must be positive")
	}
	return &Network{
		eng:      e,
		cfg:      cfg,
		nics:     make(map[NodeID]*nic),
		handlers: make(map[NodeID]Handler),
		down:     make(map[NodeID]bool),
	}
}

// Attach registers a node and its message handler. Attaching the same
// node twice panics: handlers must not be silently replaced — a restarted
// process must Detach first. The NIC record is reused across restarts so
// the node's transmit accounting stays continuous.
func (n *Network) Attach(id NodeID, h Handler) {
	if _, ok := n.handlers[id]; ok {
		panic(fmt.Sprintf("simnet: node %d attached twice", id))
	}
	if n.nics[id] == nil {
		n.nics[id] = &nic{}
	}
	n.handlers[id] = h
}

// SetDown marks a node unreachable (crashed). Messages to or from it are
// dropped silently, like a dead NIC.
func (n *Network) SetDown(id NodeID, down bool) { n.down[id] = down }

// IsDown reports whether a node is marked unreachable.
func (n *Network) IsDown(id NodeID) bool { return n.down[id] }

// Send transmits a message. Transmission serializes on the sender's NIC;
// delivery happens one propagation delay after the last byte leaves, with
// a sender-assigned sequence number (see deliverySeq). It must be called
// from engine context.
func (n *Network) Send(msg Message) {
	if n.down[msg.From] || n.down[msg.To] {
		n.dropped.Inc()
		return
	}
	src, ok := n.nics[msg.From]
	if !ok {
		panic(fmt.Sprintf("simnet: send from unattached node %d", msg.From))
	}
	if _, ok := n.handlers[msg.To]; !ok {
		panic(fmt.Sprintf("simnet: send to unattached node %d", msg.To))
	}
	now := n.eng.Now()
	start := src.txBusyUntil
	if start < now {
		start = now
	}
	txDur := sim.Duration(float64(msg.Size) / n.cfg.Bandwidth * float64(sim.Second))
	end := start.Add(txDur)
	src.txBusyUntil = end
	accountSpan(&src.txBusy, start, end)
	spreadBytes(&src.txBytes, start, end, float64(msg.Size))

	deliverAt := end.Add(n.cfg.PropagationDelay)
	if n.fault != nil {
		at, dup, ok := n.fault.apply(msg.From, msg.To, deliverAt)
		if !ok {
			return // lost in the fabric; the sender still paid tx time
		}
		deliverAt = at
		if dup {
			src.msgSeq++
			d2 := n.newDelivery()
			d2.msg = msg
			d2.at = deliverAt
			n.eng.ScheduleKeyedAt(deliverAt, deliverySeq(msg.From, src.msgSeq), d2.fn)
		}
	}
	src.msgSeq++
	d := n.newDelivery()
	d.msg = msg
	d.at = deliverAt
	n.eng.ScheduleKeyedAt(deliverAt, deliverySeq(msg.From, src.msgSeq), d.fn)
}

func accountSpan(s *metrics.Series, from, to sim.Time) {
	for t := from; t < to; {
		second := int64(t) / int64(sim.Second)
		bucketEnd := sim.Time((second + 1) * int64(sim.Second))
		end := to
		if bucketEnd < end {
			end = bucketEnd
		}
		s.Add(int(second), float64(end-t))
		t = end
	}
}

func spreadBytes(s *metrics.Series, from, to sim.Time, bytes float64) {
	span := float64(to - from)
	if span <= 0 {
		s.Add(int(int64(from)/int64(sim.Second)), bytes)
		return
	}
	for t := from; t < to; {
		second := int64(t) / int64(sim.Second)
		bucketEnd := sim.Time((second + 1) * int64(sim.Second))
		end := to
		if bucketEnd < end {
			end = bucketEnd
		}
		s.Add(int(second), bytes*float64(end-t)/span)
		t = end
	}
}

// TxBusyFracSecond returns the fraction of second k node id spent
// transmitting.
func (n *Network) TxBusyFracSecond(id NodeID, k int) float64 {
	nc, ok := n.nics[id]
	if !ok {
		return 0
	}
	f := nc.txBusy.At(k) / float64(sim.Second)
	if f > 1 {
		return 1
	}
	return f
}

// TxBytesSecond returns bytes transmitted by id during second k.
func (n *Network) TxBytesSecond(id NodeID, k int) float64 {
	if nc, ok := n.nics[id]; ok {
		return nc.txBytes.At(k)
	}
	return 0
}

// RxBytesSecond returns bytes received by id during second k.
func (n *Network) RxBytesSecond(id NodeID, k int) float64 {
	if nc, ok := n.nics[id]; ok {
		return nc.rxBytes.At(k)
	}
	return 0
}

// Delivered returns the total number of delivered messages.
func (n *Network) Delivered() int64 { return n.delivered.Value() }

// Dropped returns the total number of dropped messages.
func (n *Network) Dropped() int64 { return n.dropped.Value() }
