package des

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []float64
	for _, tm := range []float64{3, 1, 2, 5, 4} {
		tm := tm
		e.Schedule(tm, func() { order = append(order, tm) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v, want 5", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

// TestTieBreakAcrossClocks pins the order of equal-time events scheduled
// while the clock read different values: earlier scheduling wins, whether
// the tie was scheduled at time 0, from a later event, via Schedule or
// ScheduleAt, or clamped up from the past.
func TestTieBreakAcrossClocks(t *testing.T) {
	var e Engine
	var order []string
	mark := func(name string) func() { return func() { order = append(order, name) } }
	e.Schedule(5, func() {
		mark("a")()
		e.Schedule(5, mark("h"))
	})
	e.Schedule(2, func() {
		mark("b")()
		e.Schedule(5, mark("d"))
		if err := e.ScheduleAt(5, mark("e")); err != nil {
			t.Fatal(err)
		}
		e.Schedule(2, mark("f"))
		e.Schedule(1, mark("g")) // clamped to now = 2
	})
	e.Schedule(5, mark("c"))
	e.Run()
	want := "b f g a c d e h"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("event order = %q, want %q", got, want)
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	var e Engine
	var at float64 = -1
	e.Schedule(10, func() {
		e.Schedule(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 10 {
		t.Errorf("past event ran at %v, want clamped to 10", at)
	}
}

func TestCascadingEvents(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(e.Now()+1, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if e.Now() != 99 {
		t.Errorf("final time = %v, want 99", e.Now())
	}
}

func TestStepAndPending(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step returned false with events queued")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending after step = %d", e.Pending())
	}
	e.Run()
	if e.Step() {
		t.Error("Step returned true on empty queue")
	}
}

func TestReset(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Errorf("after Reset: now=%v pending=%d", e.Now(), e.Pending())
	}
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("engine unusable after Reset")
	}
}

func TestScheduleAtRejectsPast(t *testing.T) {
	var e Engine
	var errAt error
	e.Schedule(10, func() {
		errAt = e.ScheduleAt(5, func() { t.Error("past event ran") })
	})
	e.Run()
	if errAt == nil {
		t.Fatal("ScheduleAt(5) at now=10 returned nil error")
	}
	if e.Pending() != 0 {
		t.Errorf("rejected event was queued anyway: pending=%d", e.Pending())
	}
}

func TestScheduleAtAccepts(t *testing.T) {
	var e Engine
	ran := false
	if err := e.ScheduleAt(3, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(0, func() {}); err != nil {
		t.Errorf("ScheduleAt(now) rejected: %v", err)
	}
	e.Run()
	if !ran {
		t.Error("accepted event never ran")
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
}

// collected reports whether the garbage collector reclaims *p within a few
// GC cycles. The finalizer write is synchronized by runtime.GC: each cycle
// runs pending finalizers before the next check.
func collected(p *[1 << 20]byte) func() bool {
	done := make(chan struct{})
	runtime.SetFinalizer(p, func(*[1 << 20]byte) { close(done) })
	return func() bool {
		for i := 0; i < 10; i++ {
			runtime.GC()
			select {
			case <-done:
				return true
			default:
			}
		}
		return false
	}
}

// Regression: Pop used to shrink the heap slice without zeroing the vacated
// slot, so every executed event's closure stayed reachable from the backing
// array until overwritten — for the fabric that meant whole payload slices
// surviving a round.
func TestPopReleasesEventClosure(t *testing.T) {
	var e Engine
	var wait func() bool
	func() {
		payload := new([1 << 20]byte)
		wait = collected(payload)
		e.Schedule(1, func() { _ = payload[0] })
	}()
	e.Run()
	if !wait() {
		t.Errorf("popped event closure still reachable after Run (pending=%d)", e.Pending())
	}
}

// Regression: Reset used to keep the backing array contents (e.pq[:0]), so
// events abandoned mid-round were retained across rounds.
func TestResetReleasesAbandonedEvents(t *testing.T) {
	var e Engine
	var wait func() bool
	func() {
		payload := new([1 << 20]byte)
		wait = collected(payload)
		e.Schedule(1, func() { _ = payload[0] })
	}()
	e.Reset()
	if !wait() {
		t.Errorf("abandoned event closure still reachable after Reset (pending=%d)", e.Pending())
	}
}

// Regression: Run used to livelock on a scheduling cycle — an event that
// reschedules itself at Now spins forever. RunBudget must stop and name the
// stuck virtual time.
func TestRunBudgetStopsLivelock(t *testing.T) {
	var e Engine
	var tick func()
	tick = func() { e.Schedule(e.Now(), tick) }
	e.Schedule(5, tick)
	_, err := e.RunBudget(100)
	if err == nil {
		t.Fatal("RunBudget returned nil on a scheduling cycle")
	}
	be, ok := err.(*BudgetError)
	if !ok {
		t.Fatalf("error type = %T, want *BudgetError", err)
	}
	if be.NextAt != 5 || be.Now != 5 {
		t.Errorf("BudgetError names t=%g (now %g), want the stuck time 5", be.NextAt, be.Now)
	}
	if be.Pending == 0 || e.Pending() == 0 {
		t.Errorf("pending = %d/%d, want the cycle's event still queued", be.Pending, e.Pending())
	}
}

func TestRunBudgetCompletesUnderBudget(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	final, err := e.RunBudget(1000)
	if err != nil {
		t.Fatalf("RunBudget failed on a finite workload: %v", err)
	}
	if count != 10 || final != 9 {
		t.Errorf("count=%d final=%g, want 10 events ending at t=9", count, final)
	}
}

func TestRunBudgetZeroIsUnbounded(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 500; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	if _, err := e.RunBudget(0); err != nil {
		t.Fatalf("RunBudget(0) errored: %v", err)
	}
	if count != 500 {
		t.Errorf("count = %d, want all 500 (budget 0 means unbounded)", count)
	}
}

// Guard for the monomorphic-heap fix: container/heap's interface{} Push/Pop
// boxed one event per schedule. With warm capacity a schedule+run cycle must
// not allocate at all.
func TestScheduleRunDoesNotAllocate(t *testing.T) {
	var e Engine
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(float64(i), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1024; i++ {
			e.Schedule(float64(i&15), fn)
		}
		e.Run()
	})
	if avg != 0 {
		t.Errorf("Schedule+Run allocates %.1f per round with warm capacity, want 0", avg)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	var e Engine
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			e.Schedule(float64(j&7), fn)
		}
		e.Run()
	}
}

// Property: regardless of scheduling order, execution is monotone in time.
func TestMonotoneExecutionProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var e Engine
		var ran []float64
		for _, tv := range times {
			tm := float64(tv)
			e.Schedule(tm, func() { ran = append(ran, tm) })
		}
		e.Run()
		return sort.Float64sAreSorted(ran)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a Queue[int] drained by a dispatch loop and an Engine of
// closures pop the same random event graph in the same order, and that
// order is (time, scheduling order). Each event spawns children at now plus
// a delay of 0, 1 or 2, so equal-time ties are common, including ties
// between events scheduled while the clock read different values. Event
// ids count schedule calls, so in a correct run the popped (time, id) pairs
// rise strictly: an event that sorts earlier than one already popped could
// only have been scheduled after it, at a later id and no earlier time.
func TestQueueMatchesEngineProperty(t *testing.T) {
	const maxEvents = 400
	f := func(initial []uint8, plan []uint8) bool {
		if len(plan) == 0 {
			plan = []uint8{1}
		}
		// spawn schedules the children of event id, firing at now.
		spawn := func(id int, now float64, sched func(float64)) {
			for j := 0; j < int(plan[id%len(plan)]%3); j++ {
				sched(now + float64(plan[(id+j+1)%len(plan)]%3))
			}
		}

		var e Engine
		var engineOrder []int
		var engineTimes []float64
		next := 0
		var schedE func(float64)
		schedE = func(t float64) {
			if next == maxEvents {
				return
			}
			id := next
			next++
			e.Schedule(t, func() {
				engineOrder = append(engineOrder, id)
				engineTimes = append(engineTimes, e.Now())
				spawn(id, e.Now(), schedE)
			})
		}
		for _, tv := range initial {
			schedE(float64(tv % 4))
		}
		e.Run()

		var q Queue[int]
		var queueOrder []int
		var queueTimes []float64
		next = 0
		schedQ := func(at float64) {
			if next == maxEvents {
				return
			}
			if err := q.ScheduleAt(at, next); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for _, tv := range initial {
			schedQ(float64(tv % 4))
		}
		if _, err := q.RunBudget(0, func(id int) {
			queueOrder = append(queueOrder, id)
			queueTimes = append(queueTimes, q.Now())
			spawn(id, q.Now(), schedQ)
		}); err != nil {
			return false
		}
		for k := 1; k < len(queueOrder); k++ {
			if queueTimes[k] < queueTimes[k-1] ||
				queueTimes[k] == queueTimes[k-1] && queueOrder[k] < queueOrder[k-1] {
				return false
			}
		}
		return len(queueOrder) == next && slices.Equal(engineOrder, queueOrder) &&
			slices.Equal(engineTimes, queueTimes) && e.Now() == q.Now() && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
