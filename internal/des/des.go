// Package des implements a small discrete-event simulation kernel: a virtual
// clock and a time-ordered event queue.
//
// Queue[T] is the kernel: a binary heap of typed event records ordered by
// (time, seq), where seq is the scheduling counter, plus the clock that Pop
// advances. Equal-time events pop in the order they were scheduled, so every
// run of the same event graph is bit-identical. The network fabric
// (internal/tofu) drives a Queue of small value records (an event kind and
// an index) and dispatches them itself, so a communication round schedules
// no closures and allocates nothing once the heap's backing array is warm.
//
// Engine is the callback form: a Queue[func()] whose events are functions
// run as they pop. It suits callers whose events do not share one shape.
//
// Both are serial: one clock, one queue, one goroutine.
package des

import "fmt"

// item is a queued event record. The ordering key is (time, seq): time is
// when the event fires and seq the queue's scheduling counter. Because the
// clock never rewinds, the clock at scheduling time is non-decreasing in
// seq, so this is also the order of (time, clock at scheduling, seq).
type item[T any] struct {
	time float64
	seq  uint64
	v    T
}

// before is the strict ordering of the queue.
func (a *item[T]) before(b *item[T]) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Queue is a virtual clock and a time-ordered queue of event records of
// type T. The zero value is ready to use with the clock at 0. The heap is
// a direct binary min-heap over item values rather than container/heap,
// whose interface{} Push/Pop would box one record per scheduled event; it
// allocates only when its backing array grows. Queues are not safe for
// concurrent use.
type Queue[T any] struct {
	now float64
	seq uint64
	h   []item[T]
}

// Now returns the current virtual time in seconds: the time of the last
// popped event, or 0 after Reset.
func (q *Queue[T]) Now() float64 { return q.now }

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// NextAt returns the time of the earliest queued event, or Now when the
// queue is empty.
func (q *Queue[T]) NextAt() float64 {
	if len(q.h) == 0 {
		return q.now
	}
	return q.h[0].time
}

// ScheduleAt queues v to fire at virtual time t, rejecting times in the
// past: code computing deadlines should treat a negative delay as an
// arithmetic bug, not as "run now". Ties are broken by scheduling order.
func (q *Queue[T]) ScheduleAt(t float64, v T) error {
	if t < q.now {
		return fmt.Errorf("des: ScheduleAt(%g) is before now (%g)", t, q.now)
	}
	q.push(t, v)
	return nil
}

// push inserts an event at t (not before now), sifting it up.
func (q *Queue[T]) push(t float64, v T) {
	q.seq++
	q.h = append(q.h, item[T]{time: t, seq: q.seq, v: v})
	s := q.h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes the earliest event, advances the clock to its time and
// returns its record; ok is false when the queue is empty. The vacated
// slot is zeroed so a popped record (a closure and everything it captures,
// for Engine) is not retained by the backing array.
func (q *Queue[T]) Pop() (v T, ok bool) {
	s := q.h
	n := len(s) - 1
	if n < 0 {
		return v, false
	}
	top := s[0]
	s[0] = s[n]
	s[n] = item[T]{}
	s = s[:n]
	q.h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s[right].before(&s[left]) {
			min = right
		}
		if !s[min].before(&s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	q.now = top.time
	return top.v, true
}

// RunBudget pops events and passes each to fire until the queue is empty
// or budget events have fired, whichever comes first; fire may schedule
// more. budget <= 0 means unbounded. On budget exhaustion with events
// still pending it returns a *BudgetError naming the stuck virtual time;
// the remaining events stay queued for the caller to inspect. It returns
// the final clock.
func (q *Queue[T]) RunBudget(budget int, fire func(T)) (float64, error) {
	for n := 0; budget <= 0 || n < budget; n++ {
		v, ok := q.Pop()
		if !ok {
			return q.now, nil
		}
		fire(v)
	}
	if len(q.h) == 0 {
		return q.now, nil
	}
	return q.now, &BudgetError{Budget: budget, Now: q.now, NextAt: q.NextAt(), Pending: len(q.h)}
}

// Reset clears the queue and rewinds the clock and the scheduling counter
// to 0 so the queue can be reused without reallocating. The retained
// backing array is zeroed so abandoned records are not kept alive.
func (q *Queue[T]) Reset() {
	q.now = 0
	q.seq = 0
	clear(q.h)
	q.h = q.h[:0]
}

// BudgetError reports that an event-budget-bounded run stopped before the
// queue drained. Because fabric rounds schedule a bounded number of events
// per message, exceeding the budget means a scheduling cycle — an event
// that (transitively) reschedules itself without advancing time — and
// NextAt names the virtual time the cycle is stuck at.
type BudgetError struct {
	// Budget is the event-count bound that was exhausted.
	Budget int
	// Now is the virtual time of the last executed event.
	Now float64
	// NextAt is the earliest pending event time — for a livelock this is the
	// virtual time the engine cannot get past.
	NextAt float64
	// Pending is the number of events still queued.
	Pending int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("des: event budget %d exhausted at t=%g with %d events pending (next at t=%g): scheduling cycle?",
		e.Budget, e.Now, e.Pending, e.NextAt)
}

// Engine is a virtual-time event loop over callbacks: a Queue[func()] whose
// events run as they pop. The zero value is ready to use with the clock at
// 0. Engines are not safe for concurrent use.
type Engine struct {
	q Queue[func()]
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.q.now }

// Schedule registers fn to run at virtual time t. Events scheduled for a
// time earlier than Now run immediately at Now (time never goes backwards).
// Ties are broken by scheduling order, which keeps runs deterministic.
func (e *Engine) Schedule(t float64, fn func()) {
	if t < e.q.now {
		t = e.q.now
	}
	e.q.push(t, fn)
}

// ScheduleAt registers fn to run at virtual time t, rejecting times in the
// past. Unlike Schedule it does not clamp (see Queue.ScheduleAt).
func (e *Engine) ScheduleAt(t float64, fn func()) error {
	return e.q.ScheduleAt(t, fn)
}

// Step executes the earliest pending event, advancing the clock. It returns
// false when no events remain.
func (e *Engine) Step() bool {
	fn, ok := e.q.Pop()
	if ok {
		fn()
	}
	return ok
}

// Run executes events until the queue is empty and returns the final time.
// It has no event bound: a scheduling cycle livelocks. Drivers that cannot
// prove their event graph is acyclic should use RunBudget.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.q.now
}

// RunBudget executes events until the queue is empty or budget events have
// run, whichever comes first. budget <= 0 means unbounded (identical to
// Run). On budget exhaustion with events still pending it returns a
// *BudgetError naming the stuck virtual time; the remaining events stay
// queued for the caller to inspect.
func (e *Engine) RunBudget(budget int) (float64, error) {
	return e.q.RunBudget(budget, call)
}

// call fires an Engine event.
func call(fn func()) { fn() }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.q.Len() }

// Reset clears the queue and rewinds the clock to 0 so the engine can be
// reused without reallocating. The retained backing array is zeroed so
// abandoned events do not keep their closures alive.
func (e *Engine) Reset() { e.q.Reset() }
