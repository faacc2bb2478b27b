package sched

import (
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/units"
)

// ecuRunner simulates one preemptive fixed-priority processor. At any
// instant the highest-priority ready job runs; a release of a more urgent
// job preempts the running one, which keeps its remaining demand and
// returns to the ready queue.
type ecuRunner struct {
	sched *Scheduler
	id    int

	ready   readyHeap
	running *job
	// startedAt is when the running job last received the CPU.
	startedAt simtime.Time
	// completion is the pending completion event of the running job.
	completion simtime.EventID

	// busy accumulates CPU time used in the current monitoring window.
	busy       simtime.Duration
	lastSample simtime.Time
}

// enqueue admits a job and re-evaluates dispatch.
func (e *ecuRunner) enqueue(j *job, now simtime.Time) {
	e.ready.push(j)
	e.dispatch(now)
}

// abort removes a job wherever it is (running or ready). The partially
// executed demand stays charged to the busy window: the CPU time was
// genuinely consumed, which is why overload drives measured utilization to
// one (Figure 8(a)).
func (e *ecuRunner) abort(j *job, now simtime.Time) {
	if e.running == j {
		e.haltRunning(now)
		e.dispatch(now)
		return
	}
	if j.index >= 0 {
		e.ready.remove(j.index)
	}
}

// dispatch enforces the fixed-priority invariant after any queue change.
func (e *ecuRunner) dispatch(now simtime.Time) {
	if e.running != nil {
		if len(e.ready) == 0 || !e.ready[0].higherPriorityThan(e.running) {
			return
		}
		// Preempt: bank the progress and requeue. A job whose demand is
		// exactly exhausted at the preemption instant has finished — its
		// completion event is pending at this same timestamp but ordered
		// after the event that triggered this dispatch, so resolve it
		// here instead of requeueing it behind the preemptor (which
		// would misreport its completion time).
		preempted := e.haltRunning(now)
		if preempted.remaining == 0 {
			e.sched.jobFinished(preempted, now)
			e.dispatch(now)
			return
		}
		e.ready.push(preempted)
	}
	if len(e.ready) == 0 {
		return
	}
	next := e.ready.pop()
	e.running = next
	e.startedAt = now
	// Closure-free completion event: binding the method value e.complete
	// would allocate once per dispatch, which dominates the steady-state
	// allocation profile of a busy ECU.
	e.completion = e.sched.eng.ScheduleCall(now.Add(next.remaining), ecuCompleteEvent, e)
}

// ecuCompleteEvent is the pre-bound completion callback; arg is the
// *ecuRunner whose running job exhausted its demand.
func ecuCompleteEvent(now simtime.Time, arg any) {
	arg.(*ecuRunner).complete(now)
}

// haltRunning stops the running job, charging its elapsed CPU time and
// updating its remaining demand. It returns the halted job.
func (e *ecuRunner) haltRunning(now simtime.Time) *job {
	j := e.running
	elapsed := now.Sub(e.startedAt)
	j.remaining -= elapsed
	if j.remaining < 0 {
		j.remaining = 0
	}
	e.busy += elapsed
	e.sched.eng.Cancel(e.completion)
	e.running = nil
	return j
}

// complete fires when the running job's remaining demand is exhausted.
func (e *ecuRunner) complete(now simtime.Time) {
	j := e.running
	e.busy += now.Sub(e.startedAt)
	j.remaining = 0
	e.running = nil
	e.sched.jobFinished(j, now)
	e.dispatch(now)
}

// sampleWindow closes the current monitoring window and returns its busy
// fraction. A running job's partial progress is charged to the closing
// window.
func (e *ecuRunner) sampleWindow(now simtime.Time) units.Util {
	if e.running != nil {
		elapsed := now.Sub(e.startedAt)
		e.busy += elapsed
		e.running.remaining -= elapsed
		if e.running.remaining < 0 {
			e.running.remaining = 0
		}
		// Restart accounting from the sample instant; the completion
		// event already scheduled remains correct because remaining
		// was reduced by exactly the charged time.
		e.startedAt = now
	}
	window := now.Sub(e.lastSample)
	e.lastSample = now
	busy := e.busy
	e.busy = 0
	if window <= 0 {
		return 0
	}
	u := units.RawUtil(float64(busy) / float64(window))
	if u > 1 {
		u = 1 // guard against rounding at window edges
	}
	return u
}

// higherPriorityThan reports strict priority ordering between jobs: smaller
// subdeadline first, then earlier release, then admission order. The strict
// order makes preemption decisions deterministic.
func (j *job) higherPriorityThan(other *job) bool {
	//lint:allow floateq exact tie-break keeps the priority order total and deterministic
	if j.priority != other.priority {
		return j.priority < other.priority
	}
	if j.release != other.release {
		return j.release < other.release
	}
	return j.seq < other.seq
}

// reset clears all execution state for a new run: the ready queue, the
// running job, and the utilization-window accounting, which restarts at
// the given instant exactly as construction does.
func (e *ecuRunner) reset(now simtime.Time) {
	for i := range e.ready {
		e.ready[i] = nil
	}
	e.ready = e.ready[:0]
	e.running = nil
	e.startedAt = 0
	e.completion = 0
	e.busy = 0
	e.lastSample = now
}

// readyHeap is a binary min-heap of ready jobs ordered by
// higherPriorityThan. Each queued job records its position in index (-1
// once it leaves), which is what lets abort remove it in O(log n). The
// order is total, so the pop sequence does not depend on the heap layout;
// Scheduler.CopyFrom copies the array positionally and the heap invariant
// comes with it.
type readyHeap []*job

// push adds j to the heap.
func (h *readyHeap) push(j *job) {
	*h = append(*h, j)
	h.up(len(*h)-1, j)
}

// pop removes and returns the highest-priority job. The heap must be
// non-empty.
func (h *readyHeap) pop() *job {
	old := *h
	top := old[0]
	last := len(old) - 1
	x := old[last]
	old[last] = nil
	*h = old[:last]
	if last > 0 {
		h.down(0, x)
	}
	top.index = -1
	return top
}

// remove takes the job at position i out of the heap.
func (h *readyHeap) remove(i int) {
	old := *h
	j := old[i]
	last := len(old) - 1
	x := old[last]
	old[last] = nil
	*h = old[:last]
	j.index = -1
	if i == last {
		return
	}
	if i > 0 && x.higherPriorityThan(old[(i-1)/2]) {
		h.up(i, x)
	} else {
		h.down(i, x)
	}
}

// up places j into the hole at position i, moving lower-priority
// ancestors down.
func (h readyHeap) up(i int, j *job) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !j.higherPriorityThan(p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = j
	j.index = i
}

// down places j into the hole at position i, moving higher-priority
// children up.
func (h readyHeap) down(i int, j *job) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := h[child]
		if right := child + 1; right < n && h[right].higherPriorityThan(c) {
			child, c = right, h[right]
		}
		if !c.higherPriorityThan(j) {
			break
		}
		h[i] = c
		c.index = i
		i = child
	}
	h[i] = j
	j.index = i
}
