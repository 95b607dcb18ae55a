package sim

import "testing"

func TestQueueFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Push(i * 10)
			p.Sleep(Millisecond)
		}
	})
	e.Run()
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			v := q.Pop(p)
			got = append(got, name+":"+string(rune('0'+v)))
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(Second)
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	e.Run()
	want := []string{"w1:1", "w2:2", "w3:3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	e := New(1)
	q := NewQueue[string](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push("x")
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	e := New(1)
	m := NewMutex(e)
	var order []string
	hold := func(name string, start, dur Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			m.Lock(p)
			order = append(order, name+"-in")
			p.Sleep(dur)
			order = append(order, name+"-out")
			m.Unlock()
		})
	}
	hold("a", 0, 10*Millisecond)
	hold("b", Millisecond, Millisecond)
	hold("c", 2*Millisecond, Millisecond)
	e.Run()
	want := []string{"a-in", "a-out", "b-in", "b-out", "c-in", "c-out"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMutex(New(1)).Unlock()
}

func TestMutexWaiters(t *testing.T) {
	e := New(1)
	m := NewMutex(e)
	var peak int
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(Second)
		peak = m.Waiters()
		m.Unlock()
	})
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(Millisecond)
			m.Lock(p)
			m.Unlock()
		})
	}
	e.Run()
	if peak != 3 {
		t.Fatalf("peak waiters = %d, want 3", peak)
	}
}

func TestSemaphoreCapacity(t *testing.T) {
	e := New(1)
	s := NewSemaphore(e, 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("u", func(p *Proc) {
			s.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(Millisecond)
			active--
			s.Release()
		})
	}
	e.Run()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if s.Available() != 2 {
		t.Fatalf("available = %d, want 2", s.Available())
	}
}

func TestFutureSetBeforeGet(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	f.Set(7)
	var got int
	e.Go("g", func(p *Proc) { got = f.Get(p) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestFutureGetBlocksUntilSet(t *testing.T) {
	e := New(1)
	f := NewFuture[string](e)
	var got string
	var at Time
	e.Go("g", func(p *Proc) {
		got = f.Get(p)
		at = p.Now()
	})
	e.Schedule(3*Second, func() { f.Set("done") })
	e.Run()
	if got != "done" || at != Time(3*Second) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	sum := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) { sum += f.Get(p) })
	}
	e.Schedule(Second, func() { f.Set(5) })
	e.Run()
	if sum != 20 {
		t.Fatalf("sum = %d, want 20", sum)
	}
}

func TestFutureSetTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFuture[int](New(1))
	f.Set(1)
	f.Set(2)
}

func TestFutureGetTimeoutExpires(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var ok bool
	var at Time
	e.Go("g", func(p *Proc) {
		_, ok = f.GetTimeout(p, 2*Second)
		at = p.Now()
	})
	e.Run()
	if ok {
		t.Fatal("expected timeout")
	}
	if at != Time(2*Second) {
		t.Fatalf("timed out at %v, want 2s", at)
	}
	// A very late Set must not resume anyone.
	f.Set(1)
	e.Run()
}

func TestFutureGetTimeoutSucceeds(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var v int
	var ok bool
	e.Go("g", func(p *Proc) { v, ok = f.GetTimeout(p, 2*Second) })
	e.Schedule(Second, func() { f.Set(9) })
	e.Run()
	if !ok || v != 9 {
		t.Fatalf("v=%d ok=%v", v, ok)
	}
}

func TestFutureGetTimeoutAlreadySet(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	f.Set(3)
	var v int
	var ok bool
	var at Time
	e.Go("g", func(p *Proc) {
		v, ok = f.GetTimeout(p, Second)
		at = p.Now()
	})
	e.Run()
	if !ok || v != 3 || at != 0 {
		t.Fatalf("v=%d ok=%v at=%v", v, ok, at)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("worker", func(p *Proc) {
			p.Sleep(Duration(i) * Second)
			wg.Done()
		})
	}
	e.Run()
	if doneAt != Time(3*Second) {
		t.Fatalf("waiter done at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroCountNoBlock(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	ran := false
	e.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWaitGroup(New(1)).Add(-1)
}

func TestLIFOWakeQueue(t *testing.T) {
	e := New(1)
	q := NewLIFOWakeQueue[int](e)
	var got []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			for {
				v := q.Pop(p)
				if v < 0 {
					return
				}
				got = append(got, name)
				p.Sleep(Microsecond) // process, then re-park (most recent)
			}
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(Millisecond) // let all three park: w1, w2, w3 in park order
		for i := 0; i < 4; i++ {
			q.Push(i)
			p.Sleep(10 * Microsecond) // w3 finishes and re-parks before next push
		}
		for i := 0; i < 3; i++ {
			q.Push(-1)
		}
	})
	e.Run()
	e.Shutdown()
	// LIFO wake: the last-parked waiter (w3) services everything.
	want := []string{"w3", "w3", "w3", "w3"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestProcHandoffAllocFree pins the steady-state wake-up path at zero
// allocations: two procs ping-ponging through two queues reuse the queues'
// backing arrays, the event ring and the heap, and the coroutine switch
// itself allocates nothing.
func TestProcHandoffAllocFree(t *testing.T) {
	e := New(1)
	q1, q2 := NewQueue[int](e), NewQueue[int](e)
	e.Go("a", func(p *Proc) {
		for i := 0; ; i++ {
			q1.Push(i)
			q2.Pop(p)
			p.Sleep(Microsecond)
		}
	})
	e.Go("b", func(p *Proc) {
		for {
			q2.Push(q1.Pop(p))
		}
	})
	defer e.Shutdown()
	allocs := testing.AllocsPerRun(20, func() {
		e.RunUntil(e.Now().Add(100 * Microsecond))
	})
	if allocs != 0 {
		t.Fatalf("handoff allocates %v per 100 round trips, want 0", allocs)
	}
}

// TestQueueBacklogKeepsFIFO drives a queue that never drains through many
// pushes, so its dead prefix is compacted rather than reclaimed on empty,
// and checks that order survives and the backing array stays bounded.
func TestQueueBacklogKeepsFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	next := 0
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	for i := 5; i < 10_000; i++ {
		q.Push(i)
		v, ok := q.TryPop()
		if !ok || v != next {
			t.Fatalf("TryPop = %d, %v; want %d", v, ok, next)
		}
		next++
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	if c := cap(q.items.s); c > 64 {
		t.Fatalf("backing array grew to %d for a backlog of 5", c)
	}
	for q.Len() > 0 {
		if v, _ := q.TryPop(); v != next {
			t.Fatalf("TryPop = %d, want %d", v, next)
		}
		next++
	}
}
