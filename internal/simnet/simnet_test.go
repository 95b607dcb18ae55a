package simnet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ramcloud/internal/sim"
	"ramcloud/internal/wire"
)

func netCfg() Config {
	return Config{PropagationDelay: 5 * sim.Microsecond, Bandwidth: 1e9}
}

func TestDeliveryLatency(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	var at sim.Time
	var got Message
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { at = e.Now(); got = m })
	// 1000 bytes at 1 GB/s = 1us tx + 5us propagation.
	e.Schedule(0, func() {
		n.Send(Message{From: 1, To: 2, Size: 1000, Payload: &wire.PingReq{Seq: 7}})
	})
	e.Run()
	if at != sim.Time(6*sim.Microsecond) {
		t.Fatalf("delivered at %v, want 6us", at)
	}
	if m, ok := got.Payload.(*wire.PingReq); !ok || m.Seq != 7 || got.From != 1 {
		t.Fatalf("message = %+v", got)
	}
	if n.Delivered() != 1 {
		t.Fatalf("delivered = %d", n.Delivered())
	}
}

func TestNICTxSerialization(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	var times []sim.Time
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { times = append(times, e.Now()) })
	e.Schedule(0, func() {
		n.Send(Message{From: 1, To: 2, Size: 1000}) // tx [0,1us], arrive 6us
		n.Send(Message{From: 1, To: 2, Size: 1000}) // tx [1us,2us], arrive 7us
	})
	e.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[0] != sim.Time(6*sim.Microsecond) || times[1] != sim.Time(7*sim.Microsecond) {
		t.Fatalf("times = %v", times)
	}
}

func TestDownNodeDropsMessages(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	delivered := 0
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { delivered++ })
	n.SetDown(2, true)
	e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 10}) })
	e.Run()
	if delivered != 0 || n.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, n.Dropped())
	}
	if !n.IsDown(2) {
		t.Fatal("IsDown(2) = false")
	}
}

func TestDeathMidFlightDrops(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	delivered := 0
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { delivered++ })
	e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 1000}) })
	// Node dies while the message is in flight (arrives at 6us).
	e.Schedule(2*sim.Microsecond, func() { n.SetDown(2, true) })
	e.Run()
	if delivered != 0 || n.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, n.Dropped())
	}
}

func TestSendFromUnattachedPanics(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	n.Attach(2, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Send(Message{From: 1, To: 2, Size: 1})
}

func TestDoubleAttachPanics(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	n.Attach(1, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Attach(1, func(m Message) {})
}

// A zero propagation delay would let a small message's delivery land at
// the send instant, which keyed delivery events cannot express; New must
// reject it up front with a named cause instead of the first Send
// panicking inside the engine.
func TestNonPositivePropagationDelayPanics(t *testing.T) {
	for _, d := range []sim.Duration{0, -sim.Microsecond} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New accepted PropagationDelay %v", d)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "propagation delay") {
					t.Fatalf("panic = %q, want it to name the propagation delay", msg)
				}
			}()
			e := sim.New(1)
			n := New(e, Config{PropagationDelay: d, Bandwidth: 2.3e9})
			n.Attach(1, func(m Message) {})
			n.Attach(2, func(m Message) {})
			e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 1}) })
			e.Run()
		}()
	}
}

// TestSameInstantDeliveryInSenderOrder: messages that reach one node at
// the same instant are delivered in sender-id order, not in the order
// they were sent. Node 2 sends first, yet node 1's message arrives first.
func TestSameInstantDeliveryInSenderOrder(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	var from []NodeID
	var at []sim.Time
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) {})
	n.Attach(3, func(m Message) { from = append(from, m.From); at = append(at, e.Now()) })
	e.Schedule(0, func() {
		n.Send(Message{From: 2, To: 3, Size: 1000})
		n.Send(Message{From: 1, To: 3, Size: 1000})
	})
	e.Run()
	if len(from) != 2 || at[0] != at[1] {
		t.Fatalf("deliveries from %v at %v, want two at one instant", from, at)
	}
	if from[0] != 1 || from[1] != 2 {
		t.Fatalf("delivery order by sender = %v, want [1 2]", from)
	}
}

func TestByteAccounting(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) {})
	e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 500e6}) }) // 0.5s tx
	e.Run()
	if math.Abs(n.TxBytesSecond(1, 0)-500e6) > 1 {
		t.Fatalf("tx bytes = %v", n.TxBytesSecond(1, 0))
	}
	if math.Abs(n.RxBytesSecond(2, 0)-500e6) > 1 {
		t.Fatalf("rx bytes = %v", n.RxBytesSecond(2, 0))
	}
	if f := n.TxBusyFracSecond(1, 0); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("tx busy frac = %v", f)
	}
	if n.TxBusyFracSecond(99, 0) != 0 {
		t.Fatal("unknown node busy frac should be 0")
	}
}

func TestRoundTripThroughQueues(t *testing.T) {
	// Simulates the standard usage pattern: handler pushes into a queue, a
	// proc services it and replies.
	e := sim.New(1)
	n := New(e, netCfg())
	serverQ := sim.NewQueue[Message](e)
	reply := sim.NewFuture[uint64](e)
	n.Attach(1, func(m Message) { reply.Set(m.Payload.(*wire.PingResp).Seq) })
	n.Attach(2, func(m Message) { serverQ.Push(m) })
	e.Go("server", func(p *sim.Proc) {
		m := serverQ.Pop(p)
		p.Sleep(2 * sim.Microsecond) // service time
		n.Send(Message{From: 2, To: 1, Size: 100, Payload: &wire.PingResp{Seq: m.Payload.(*wire.PingReq).Seq}})
	})
	var got uint64
	var rtt sim.Duration
	e.Go("client", func(p *sim.Proc) {
		start := p.Now()
		n.Send(Message{From: 1, To: 2, Size: 100, Payload: &wire.PingReq{Seq: 41}})
		got = reply.Get(p)
		rtt = p.Now().Sub(start)
	})
	e.Run()
	e.Shutdown()
	if got != 41 {
		t.Fatalf("got %d", got)
	}
	// 2x (0.1us tx + 5us prop) + 2us service = 12.2us
	want := sim.Duration(12200)
	if rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}
