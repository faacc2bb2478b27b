package simtime

import (
	"container/heap"
	"fmt"
)

// ReferenceEngine is the retained naive discrete-event engine: one boxed
// closure per event and a live map for cancellation. It is semantically
// identical to Engine — same (time, sequence) total order, same clock
// rules, same Cancel contract — and exists so the equivalence tests can
// require that the pooled slot-arena engine fires exactly the same events
// at exactly the same instants over randomized schedule/cancel sequences.
// It is test infrastructure and lives in a test file.
type ReferenceEngine struct {
	now     Time
	queue   refEventHeap
	nextSeq uint64
	nextID  EventID
	live    map[EventID]*refEvent
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
// the past panics, exactly as Engine.ScheduleCall does.
func (e *ReferenceEngine) Schedule(at Time, fn EventFunc) EventID {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	e.nextSeq++
	e.nextID++
	ev := &refEvent{at: at, seq: e.nextSeq, id: e.nextID, fn: fn}
	heap.Push(&e.queue, ev)
	e.live[ev.id] = ev
	return ev.id
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

// Run executes events in timestamp order until the queue is empty or the
// next event is strictly after `until`, with the same clock rules as
// Engine.Run.
func (e *ReferenceEngine) Run(until Time) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.queue)
		delete(e.live, next.id)
		e.now = next.at
		next.fn(e.now)
	}
	if e.now < until {
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
