package sim

// This file provides blocking synchronization primitives for procs. All of
// them wake waiters through the event queue, preserving determinism.

// fifo is a slice-backed queue popped from a head index. Unlike s = s[1:],
// popping keeps the backing array's capacity, so a steady producer and
// consumer reuse one array instead of reallocating on every append. The
// dead prefix is reclaimed when the queue drains, or compacted away on a
// full append once it is at least half the slice.
type fifo[T any] struct {
	s    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.s) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.s) == cap(f.s) && f.head > 0 && 2*f.head >= len(f.s) {
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s = f.s[:n]
		f.head = 0
	}
	f.s = append(f.s, v)
}

// popFront removes and returns the oldest element.
func (f *fifo[T]) popFront() T {
	var zero T
	v := f.s[f.head]
	f.s[f.head] = zero
	f.head++
	f.reset()
	return v
}

// popBack removes and returns the newest element.
func (f *fifo[T]) popBack() T {
	var zero T
	n := len(f.s) - 1
	v := f.s[n]
	f.s[n] = zero
	f.s = f.s[:n]
	f.reset()
	return v
}

// reset rewinds an empty queue to the start of its backing array.
func (f *fifo[T]) reset() {
	if f.head == len(f.s) {
		f.s = f.s[:0]
		f.head = 0
	}
}

// Queue is an unbounded FIFO queue that procs can block on. Pushing may be
// done from callbacks or procs; popping only from procs.
//
// Items are always delivered FIFO; the wakeLIFO option only changes which
// *waiter* is woken first (most-recently parked), modeling schedulers with
// hot-thread affinity such as RAMCloud's dispatch, which prefers the worker
// that finished most recently to keep its cache warm.
type Queue[T any] struct {
	eng      *Engine
	items    fifo[T]
	waiting  fifo[*Proc]
	wakeLIFO bool
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// NewLIFOWakeQueue returns a queue that wakes the most-recently parked
// waiter first.
func NewLIFOWakeQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e, wakeLIFO: true}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Waiters returns the number of procs blocked in Pop.
func (q *Queue[T]) Waiters() int { return q.waiting.len() }

// Push appends v and wakes one waiting proc, if any.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	if q.waiting.len() > 0 {
		var w *Proc
		if q.wakeLIFO {
			w = q.waiting.popBack()
		} else {
			w = q.waiting.popFront()
		}
		q.eng.scheduleProcAt(q.eng.now, w)
	}
}

// TryPop removes and returns the head of the queue without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.popFront(), true
}

// Pop removes and returns the head of the queue, blocking the proc until an
// item is available.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.waiting.push(p)
		p.park()
	}
}

// Mutex is a FIFO mutual-exclusion lock with direct hand-off: Unlock passes
// ownership to the longest-waiting proc, so the lock cannot be stolen.
type Mutex struct {
	eng     *Engine
	locked  bool
	waiting fifo[*Proc]
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Engine) *Mutex { return &Mutex{eng: e} }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }

// Waiters returns the number of procs blocked in Lock.
func (m *Mutex) Waiters() int { return m.waiting.len() }

// Lock acquires the mutex, blocking the proc until it is available.
func (m *Mutex) Lock(p *Proc) {
	if !m.locked {
		m.locked = true
		return
	}
	m.waiting.push(p)
	p.park()
	// Ownership was handed to us by Unlock; m.locked is still true.
}

// Unlock releases the mutex, handing it directly to the next waiter if one
// exists. It may be called from callbacks as well as procs.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked Mutex")
	}
	if m.waiting.len() > 0 {
		m.eng.scheduleProcAt(m.eng.now, m.waiting.popFront())
		return
	}
	m.locked = false
}

// Semaphore is a counting semaphore with FIFO hand-off.
type Semaphore struct {
	eng     *Engine
	avail   int
	waiting fifo[*Proc]
}

// NewSemaphore returns a semaphore with n available permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: e, avail: n}
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Waiters returns the number of procs blocked in Acquire.
func (s *Semaphore) Waiters() int { return s.waiting.len() }

// Acquire takes one permit, blocking until available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.waiting.push(p)
	p.park()
	// A released permit was handed directly to us.
}

// Release returns one permit, handing it to the next waiter if any.
func (s *Semaphore) Release() {
	if s.waiting.len() > 0 {
		s.eng.scheduleProcAt(s.eng.now, s.waiting.popFront())
		return
	}
	s.avail++
}

// futureWaiter is one proc parked on a future, with its timeout timer when
// the wait has a deadline.
type futureWaiter struct {
	p  *Proc
	tm *timer
}

// Future is a write-once value that procs can wait on. It is the basis of
// RPC replies.
type Future[T any] struct {
	eng     *Engine
	set     bool
	setAt   Time
	val     T
	waiting []futureWaiter
}

// NewFuture returns an unset future bound to e.
func NewFuture[T any](e *Engine) *Future[T] { return &Future[T]{eng: e} }

// IsSet reports whether the future has a value.
func (f *Future[T]) IsSet() bool { return f.set }

// Set stores the value and wakes all waiters, cancelling their timeout
// timers. Setting twice panics: a future is single-assignment by design.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.setAt = f.eng.now
	f.val = v
	for _, w := range f.waiting {
		if w.tm != nil {
			f.eng.cancelTimer(w.tm)
		}
		f.eng.scheduleProcAt(f.eng.now, w.p)
	}
	f.waiting = nil
}

// ResolvedAt returns the virtual time Set was called, or zero while the
// future is unset. A caller that polls Done/IsSet and collects the value
// later can attribute the completion to its true instant rather than the
// observation instant.
func (f *Future[T]) ResolvedAt() Time { return f.setAt }

// Get blocks until the future is set and returns its value.
func (f *Future[T]) Get(p *Proc) T {
	for !f.set {
		f.waiting = append(f.waiting, futureWaiter{p: p})
		p.park()
	}
	return f.val
}

// GetTimeout blocks until the future is set or d elapses. ok is false on
// timeout. The deadline is a cancellable timer: when the value arrives in
// time — the overwhelmingly common case — Set removes the timer, so no
// stale deadline event lingers in the engine's queues.
func (f *Future[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	if f.set {
		return f.val, true
	}
	deadline := f.eng.now.Add(d)
	tm := f.eng.scheduleProcTimer(deadline, p)
	for !f.set {
		f.waiting = append(f.waiting, futureWaiter{p: p, tm: tm})
		p.park()
		if !f.set && f.eng.now >= deadline {
			// The timer fired. Remove ourselves from the wait list so a
			// later Set does not try to resume a proc that has moved on.
			f.dropWaiter(p)
			var zero T
			return zero, false
		}
	}
	// The value arrived first; Set cancelled the timer.
	return f.val, true
}

func (f *Future[T]) dropWaiter(p *Proc) {
	for i, w := range f.waiting {
		if w.p == p {
			f.waiting = append(f.waiting[:i], f.waiting[i+1:]...)
			return
		}
	}
}

// WaitGroup counts outstanding work, like sync.WaitGroup but in simulated
// time.
type WaitGroup struct {
	eng     *Engine
	count   int
	waiting []*Proc
}

// NewWaitGroup returns a WaitGroup bound to e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e} }

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, w := range wg.waiting {
			wg.eng.scheduleProcAt(wg.eng.now, w)
		}
		wg.waiting = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiting = append(wg.waiting, p)
		p.park()
	}
}
