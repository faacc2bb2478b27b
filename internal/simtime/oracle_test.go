package simtime

import (
	"container/heap"
	"fmt"
)

// ReferenceEngine is the retained naive discrete-event engine: boxed
// per-event allocations, a live map for cancellation, and closure-based
// re-arming in Every. It is semantically identical to Engine — same
// (time, sequence) total order, same clock rules, same Cancel contract —
// and exists so the equivalence tests can require that the pooled
// slot-arena engine fires exactly the same events at exactly the same
// instants over randomized schedule/cancel sequences. It is test
// infrastructure and lives in a test file.
type ReferenceEngine struct {
	now     Time
	queue   refEventHeap
	nextSeq uint64
	nextID  EventID
	live    map[EventID]*refEvent
	stopped bool
}

type refEvent struct {
	at    Time
	seq   uint64 // FIFO tie-break among simultaneous events
	id    EventID
	fn    EventFunc
	index int // heap index, -1 when cancelled/popped
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }

func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refEventHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// NewReferenceEngine returns a reference engine with the clock at zero and
// an empty queue.
func NewReferenceEngine() *ReferenceEngine {
	return &ReferenceEngine{live: make(map[EventID]*refEvent)}
}

// Now reports the current simulated instant.
func (e *ReferenceEngine) Now() Time { return e.now }

// Schedule enqueues fn to run at the given absolute instant. Scheduling in
// the past panics, exactly as Engine.Schedule does.
func (e *ReferenceEngine) Schedule(at Time, fn EventFunc) EventID {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("simtime: schedule with nil EventFunc")
	}
	e.nextSeq++
	e.nextID++
	ev := &refEvent{at: at, seq: e.nextSeq, id: e.nextID, fn: fn}
	heap.Push(&e.queue, ev)
	e.live[ev.id] = ev
	return ev.id
}

// ScheduleCall enqueues fn(at, arg): the reference engine implements the
// closure-free API by boxing a closure, which is exactly the per-event cost
// the pooled engine eliminates.
func (e *ReferenceEngine) ScheduleCall(at Time, fn CallFunc, arg any) EventID {
	if fn == nil {
		panic("simtime: schedule with nil CallFunc")
	}
	return e.Schedule(at, func(now Time) { fn(now, arg) })
}

// After enqueues fn to run d after the current instant.
func (e *ReferenceEngine) After(d Duration, fn EventFunc) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterCall enqueues fn(now, arg) to run d after the current instant.
func (e *ReferenceEngine) AfterCall(d Duration, fn CallFunc, arg any) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return e.ScheduleCall(e.now.Add(d), fn, arg)
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-run or already-cancelled event is a no-op.
func (e *ReferenceEngine) Cancel(id EventID) bool {
	ev, ok := e.live[id]
	if !ok || ev.index < 0 {
		delete(e.live, id)
		return false
	}
	heap.Remove(&e.queue, ev.index)
	delete(e.live, id)
	return true
}

// Pending reports the number of events waiting in the queue.
func (e *ReferenceEngine) Pending() int { return e.queue.Len() }

// Stop makes Run return after the currently executing event completes.
func (e *ReferenceEngine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, the next
// event is strictly after `until`, or Stop is called, with the same clock
// rules as Engine.Run.
func (e *ReferenceEngine) Run(until Time) {
	e.stopped = false
	for !e.stopped && e.queue.Len() > 0 {
		next := e.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.queue)
		delete(e.live, next.id)
		e.now = next.at
		next.fn(e.now)
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// Step executes exactly one event if any is pending, and reports whether an
// event ran.
func (e *ReferenceEngine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	next := heap.Pop(&e.queue).(*refEvent)
	delete(e.live, next.id)
	e.now = next.at
	next.fn(e.now)
	return true
}

// Every schedules fn to run every period, first at Now()+period, re-arming
// through a fresh closure per tick (the allocating pattern the pooled
// ticker replaces). It returns a stop function with the same semantics as
// Engine.Every.
func (e *ReferenceEngine) Every(period Duration, fn EventFunc) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %v", period))
	}
	stopped := false
	var id EventID
	var tick EventFunc
	tick = func(now Time) {
		fn(now)
		if !stopped {
			id = e.After(period, tick)
		}
	}
	id = e.After(period, tick)
	return func() {
		stopped = true
		e.Cancel(id)
	}
}
