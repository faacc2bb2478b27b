package simtime

import (
	"fmt"
)

// EventFunc is the body of a scheduled event. It runs with the engine clock
// set to the event's instant and may schedule further events.
type EventFunc func(now Time)

// CallFunc is the body of a closure-free scheduled event: a long-lived
// function (typically package-level) invoked with the argument captured at
// scheduling time. Hot paths that would otherwise allocate one closure per
// event pre-bind a CallFunc once and pass per-event state through arg —
// a pointer-shaped arg makes ScheduleCall allocation-free.
type CallFunc func(now Time, arg any)

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued and is safe to use as a "no event" sentinel.
//
// An EventID encodes a slot index in the engine's event arena plus that
// slot's generation counter. The generation is bumped every time a slot is
// released (fired or cancelled), so a stale EventID held after its event
// resolved can never cancel a later event that happens to reuse the slot.
// The generation is 32 bits: aliasing would require a slot to be reused
// 2^32 times between issuing an ID and cancelling it, which no reachable
// simulation does.
type EventID uint64

// eventSlot is one arena cell. Slots are recycled through a free list, so a
// steady-state simulation schedules events with zero heap allocations. The
// ordering key lives in the heap entry, not here: sifts never touch the
// arena except to record a moved entry's position.
type eventSlot struct {
	gen     uint32 // bumped on release; stale IDs fail the generation check
	heapIdx int32  // position in the heap, -1 when not queued
	fn      EventFunc
	call    CallFunc
	arg     any
}

// heapEntry is one queued event as the heap orders it: the instant, the
// band-and-FIFO key, and the arena slot holding the callback. ord is the
// event's sequence number with bit 63 set for non-pre events, so comparing
// ord alone puts the pre-band first and keeps FIFO order within a band.
type heapEntry struct {
	at  Time
	ord uint64
	idx uint32
}

// nonPre marks a heap entry's ord as outside the pre-band. Sequence numbers
// count scheduled events and never reach bit 63.
const nonPre = uint64(1) << 63

// less orders entries by event time, pre-band before non-pre within an
// instant, FIFO within a band. The (at, ord) key is unique per event (the
// sequence number alone is), so the pop order — and therefore the whole
// simulation — is a total order independent of heap layout.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// Engine is a deterministic discrete-event simulation engine. Events
// scheduled for the same instant run in scheduling order (FIFO), which keeps
// runs reproducible regardless of map iteration or goroutine interleaving.
//
// Engine is not safe for concurrent use; the simulation is single-threaded
// by design so that identical seeds yield identical traces.
//
// Internally the engine is a slot arena with a keyed heap: callbacks live
// in a flat []eventSlot recycled through a free list, the heap holds each
// event's (time, band+sequence) key inline next to its slot index so sifts
// compare entries without indexing the arena, and EventIDs carry
// slot+generation so Cancel needs no map. After warm-up the engine performs
// no heap allocations. The test files retain ReferenceEngine, the naive
// boxed implementation the equivalence tests compare against.
type Engine struct {
	now     Time
	slots   []eventSlot
	heap    []heapEntry // binary min-heap on (at, ord)
	free    []uint32    // recycled slot indices (LIFO)
	nextSeq uint64
	stopped bool
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to its freshly-constructed observable state —
// clock at zero, empty queue, not stopped — while keeping the slot arena's
// capacity. Every slot's generation bumps, so any EventID retained from
// before the reset is stale: Cancel on it reports false and can never
// touch a reused slot. The free list is rebuilt so slots hand out in
// ascending index order, matching the order a fresh engine appends them;
// event ordering is a total order on (at, pre, seq) either way, so a reset
// engine replays a schedule identically to a fresh one.
func (e *Engine) Reset() {
	for i := range e.slots {
		s := &e.slots[i]
		s.gen++
		s.heapIdx = -1
		s.fn, s.call, s.arg = nil, nil, nil
	}
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.free = append(e.free, uint32(i))
	}
	e.now = 0
	e.nextSeq = 0
	e.stopped = false
}

// CopyFrom overwrites e with src's complete state — clock, sequence
// counter, stop flag, the slot arena with every slot's generation, the
// keyed heap and the free list — recycling e's backing arrays, so a
// same-sized copy allocates nothing. src is only read. Slot generations
// are copied, so EventIDs held by the rest of a copied session keep
// verifying against e.
//
// A pending event's argument points into src's session, so each one is
// passed through rebind, which returns the destination session's
// counterpart or an error for an argument it does not own (a ticker, an
// instrumentation hook's state). Pending closure events (Schedule, After)
// cannot be rebound and are refused. On error e's contents are
// unspecified; the caller must reset or rebuild it before running it.
func (e *Engine) CopyFrom(src *Engine, rebind func(arg any) (any, error)) error {
	if cap(e.slots) < len(src.slots) {
		e.slots = make([]eventSlot, len(src.slots))
	}
	e.slots = e.slots[:len(src.slots)]
	for i, s := range src.slots {
		if s.heapIdx >= 0 {
			at := src.heap[s.heapIdx].at
			if s.fn != nil {
				return fmt.Errorf("simtime: copy: pending closure event at %v (slot %d); only ScheduleCall events with rebindable arguments can be copied", at, i)
			}
			arg, err := rebind(s.arg)
			if err != nil {
				return fmt.Errorf("simtime: copy: pending event at %v (slot %d): %w", at, i, err)
			}
			s.arg = arg
		}
		e.slots[i] = s
	}
	e.heap = append(e.heap[:0], src.heap...)
	e.free = append(e.free[:0], src.free...)
	e.now = src.now
	e.nextSeq = src.nextSeq
	e.stopped = src.stopped
	return nil
}

// Now reports the current simulated instant.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run at the given absolute instant. Scheduling in
// the past (before Now) panics: it would silently reorder causality, which
// is always a bug in the caller.
//
// The fn value itself is stored without allocating, but building a fresh
// closure at the call site costs one allocation per event; steady-state
// code should pre-bind a CallFunc and use ScheduleCall instead.
func (e *Engine) Schedule(at Time, fn EventFunc) EventID {
	if fn == nil {
		panic("simtime: schedule with nil EventFunc")
	}
	return e.enqueue(at, fn, nil, nil, false)
}

// ScheduleCall enqueues fn(at, arg) to run at the given absolute instant.
// It is the closure-free counterpart of Schedule: fn is a long-lived
// function and arg carries the per-event state, so scheduling allocates
// nothing when arg is pointer-shaped. Scheduling in the past panics.
func (e *Engine) ScheduleCall(at Time, fn CallFunc, arg any) EventID {
	if fn == nil {
		panic("simtime: schedule with nil CallFunc") //lint:allow effects nil callback is a caller bug; failing loudly beats a silent lost event
	}
	return e.enqueue(at, nil, fn, arg, false)
}

// ScheduleCallPre enqueues fn(at, arg) in the pre-band of the given instant:
// it runs before every non-pre event scheduled at the same time, regardless
// of scheduling order. Within the pre-band, FIFO order still applies.
//
// The pre-band exists for configured scenario events. A fresh run schedules
// them before the simulation starts, so their sequence numbers are globally
// minimal and they naturally run first at their instants; a *resumed* run
// (Session.Resume after Restore) injects new scenario events with sequence
// numbers above everything the prefix scheduled. Pre-band ordering makes the
// injected event sort exactly where the fresh run's schedule would put it —
// after earlier configured events at the instant, before runtime events —
// which is what fork-vs-replay byte-identity requires.
func (e *Engine) ScheduleCallPre(at Time, fn CallFunc, arg any) EventID {
	if fn == nil {
		panic("simtime: schedule with nil CallFunc") //lint:allow effects nil callback is a caller bug; failing loudly beats a silent lost event
	}
	return e.enqueue(at, nil, fn, arg, true)
}

// After enqueues fn to run d after the current instant.
//
//lint:certify noalloc relative scheduling onto a recycled event slot through Schedule; the caller owns any closure it builds
func (e *Engine) After(d Duration, fn EventFunc) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d)) //lint:allow effects panic-path boxing; a negative delay is a caller bug
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterCall enqueues fn(now, arg) to run d after the current instant — the
// closure-free counterpart of After.
func (e *Engine) AfterCall(d Duration, fn CallFunc, arg any) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d)) //lint:allow effects panic-path boxing; a negative delay is a caller bug
	}
	return e.ScheduleCall(e.now.Add(d), fn, arg)
}

// enqueue places one event into a recycled (or fresh) slot and the heap.
func (e *Engine) enqueue(at Time, fn EventFunc, call CallFunc, arg any, pre bool) EventID {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now)) //lint:allow effects panic-path boxing; scheduling in the past silently reorders causality
	}
	e.nextSeq++
	var idx uint32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		idx = uint32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn, s.call, s.arg = fn, call, arg
	ord := e.nextSeq
	if !pre {
		ord |= nonPre
	}
	e.heap = append(e.heap, heapEntry{})
	e.siftUp(len(e.heap)-1, heapEntry{at: at, ord: ord, idx: idx})
	return EventID(uint64(idx+1) | uint64(s.gen)<<32)
}

// release returns a slot to the free list and invalidates outstanding
// EventIDs for it by bumping the generation. Callback references are
// cleared so the arena does not retain dead closures or arguments.
func (e *Engine) release(idx uint32) {
	s := &e.slots[idx]
	s.gen++
	s.heapIdx = -1
	s.fn, s.call, s.arg = nil, nil, nil
	e.free = append(e.free, idx)
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-run or already-cancelled event is a no-op
// (the slot's generation has moved on, so a reused slot is never cancelled
// under a stale ID).
func (e *Engine) Cancel(id EventID) bool {
	if id == 0 {
		return false
	}
	idx := uint32(id&0xffffffff) - 1
	gen := uint32(id >> 32)
	if int(idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[idx]
	if s.gen != gen || s.heapIdx < 0 {
		return false
	}
	e.heapRemove(int(s.heapIdx))
	e.release(idx)
	return true
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// next event is strictly after `until`, or Stop is called. The clock is
// left at the time of the last executed event, or at `until` if the queue
// drained earlier (so that periodic samplers observe a full window). After
// a Stop the clock stays at the stopping event's instant: the run did not
// cover the full window and the clock must not pretend it did.
//
//lint:certify noalloc,nopanic,deterministic event-loop drain: slot recycling and heap maintenance only; callbacks certify at their own roots
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 {
		top := e.heap[0]
		if top.at > until {
			break
		}
		// Copy out before releasing: the slot may be reused by events the
		// callback schedules, and its generation bump is what makes a
		// Cancel of the currently executing event a no-op.
		s := &e.slots[top.idx]
		at, fn, call, arg := top.at, s.fn, s.call, s.arg
		e.heapPopTop()
		e.release(top.idx)
		e.now = at
		if call != nil {
			call(at, arg) //lint:hookpoint scheduled callbacks are certified at their own trampoline roots, not through the drain loop
		} else {
			fn(at) //lint:hookpoint scheduled callbacks are certified at their own trampoline roots, not through the drain loop
		}
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunBefore executes events in timestamp order while the next event is
// strictly before t, leaving every event at or after t pending. Unlike Run
// it never advances the clock past the last executed event: the caller is
// about to snapshot or resume, and the continuation — not the prefix —
// decides how far the clock ultimately moves. Stop works as in Run.
//
//lint:certify noalloc,nopanic,deterministic prefix drain for Snapshot: same slot recycling as Run, stops strictly before t, no clock clamp
func (e *Engine) RunBefore(t Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 {
		top := e.heap[0]
		if top.at >= t {
			return
		}
		s := &e.slots[top.idx]
		at, fn, call, arg := top.at, s.fn, s.call, s.arg
		e.heapPopTop()
		e.release(top.idx)
		e.now = at
		if call != nil {
			call(at, arg) //lint:hookpoint scheduled callbacks are certified at their own trampoline roots, not through the drain loop
		} else {
			fn(at) //lint:hookpoint scheduled callbacks are certified at their own trampoline roots, not through the drain loop
		}
	}
}

// Step executes exactly one event if any is pending, and reports whether an
// event ran. It is intended for tests that need to observe intermediate
// states.
//
//lint:certify noalloc,nopanic,deterministic single-event drain used by state-observing tests; same contract as Run
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	s := &e.slots[top.idx]
	at, fn, call, arg := top.at, s.fn, s.call, s.arg
	e.heapPopTop()
	e.release(top.idx)
	e.now = at
	if call != nil {
		call(at, arg) //lint:hookpoint scheduled callbacks are certified at their own trampoline roots, not through the drain loop
	} else {
		fn(at) //lint:hookpoint scheduled callbacks are certified at their own trampoline roots, not through the drain loop
	}
	return true
}

// ticker is the re-armed state behind Every. One ticker is allocated per
// Every call; each subsequent tick re-arms through the pooled AfterCall
// path, so a periodic process allocates nothing in steady state.
type ticker struct {
	eng     *Engine
	period  Duration
	fn      EventFunc
	id      EventID
	stopped bool
}

// tickerFire runs one periodic occurrence and re-arms unless stopped. It is
// package-level so re-arming never builds a closure.
//
//lint:certify noalloc,deterministic periodic re-arm trampoline: the pooled AfterCall path allocates nothing
func tickerFire(now Time, arg any) {
	t := arg.(*ticker)
	t.fn(now) //lint:hookpoint the periodic body is caller-supplied; Every's contract bounds it, not the re-arm trampoline
	if !t.stopped {
		t.id = t.eng.AfterCall(t.period, tickerFire, t)
	}
}

// Every schedules fn to run every period, first at Now()+period. It returns
// a stop function that cancels the pending occurrence; an fn currently
// executing is unaffected (calling stop from inside fn suppresses the
// re-arm). Periodic samplers and physics steppers use this instead of
// hand-rolled rescheduling closures.
func (e *Engine) Every(period Duration, fn EventFunc) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %v", period))
	}
	t := &ticker{eng: e, period: period, fn: fn}
	t.id = e.AfterCall(period, tickerFire, t)
	return func() {
		t.stopped = true
		e.Cancel(t.id)
	}
}

// --- keyed heap ordered by (at, ord) ---
//
// The sifts move a hole instead of swapping: each displaced entry is
// written once and its slot's heapIdx updated once, and the moving entry
// lands in the final hole.

// heapPopTop removes the root without touching its slot.
func (e *Engine) heapPopTop() {
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0, x)
	}
}

// heapRemove removes the entry at heap position i.
func (e *Engine) heapRemove(i int) {
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if i == last {
		return
	}
	if i > 0 && x.less(e.heap[(i-1)/2]) {
		e.siftUp(i, x)
	} else {
		e.siftDown(i, x)
	}
}

// siftUp places x into the hole at position i, moving larger ancestors
// down until x's parent is not larger.
func (e *Engine) siftUp(i int, x heapEntry) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !x.less(p) {
			break
		}
		h[i] = p
		e.slots[p.idx].heapIdx = int32(i)
		i = parent
	}
	h[i] = x
	e.slots[x.idx].heapIdx = int32(i)
}

// siftDown places x into the hole at position i, moving smaller children
// up until neither child is smaller than x.
func (e *Engine) siftDown(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := h[child]
		if right := child + 1; right < n && h[right].less(c) {
			child, c = right, h[right]
		}
		if !c.less(x) {
			break
		}
		h[i] = c
		e.slots[c.idx].heapIdx = int32(i)
		i = child
	}
	h[i] = x
	e.slots[x.idx].heapIdx = int32(i)
}
