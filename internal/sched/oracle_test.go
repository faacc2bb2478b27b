package sched

import (
	"container/heap"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// schedule runs the closure fn at the given instant as an ordinary
// ScheduleCall event.
func schedule(eng *simtime.Engine, at simtime.Time, fn simtime.EventFunc) simtime.EventID {
	return eng.ScheduleCall(at, callClosure, fn)
}

func callClosure(now simtime.Time, arg any) { arg.(simtime.EventFunc)(now) }

// Reference is the retained naive scheduler: a fresh chain and job per
// release, a closure per scheduled event, and a map for the release-guard
// state. It issues exactly the same engine calls in exactly the same order
// as the pooled Scheduler, so the two produce byte-identical traces —
// chain events, utilization samples, counters — over any workload. The
// golden tests rely on that to certify the pooled substrate: the
// scheduler fuzz drives both directly, and the closed-loop substrate
// golden (package sched_test) wires Reference to core.NewMiddleware by
// hand. It is test infrastructure and lives in a test file.
type Reference struct {
	eng   *simtime.Engine
	sys   *taskmodel.System
	state *taskmodel.State
	cfg   Config

	ecus     []*refECURunner
	lastRel  map[taskmodel.SubtaskRef]simtime.Time
	counters []TaskCounter
	nextSeq  uint64
	started  bool
}

// NewReference assembles the naive scheduler for the validated system at
// the given operating point. Call Start to schedule the initial releases.
func NewReference(eng *simtime.Engine, state *taskmodel.State, cfg Config) *Reference {
	if cfg.Exec == nil {
		panic("sched: Config.Exec is required")
	}
	sys := state.System()
	s := &Reference{
		eng:      eng,
		sys:      sys,
		state:    state,
		cfg:      cfg,
		lastRel:  make(map[taskmodel.SubtaskRef]simtime.Time),
		counters: make([]TaskCounter, len(sys.Tasks)),
	}
	s.ecus = make([]*refECURunner, sys.NumECUs)
	for j := range s.ecus {
		s.ecus[j] = &refECURunner{sched: s, id: j, lastSample: eng.Now()}
	}
	return s
}

// State returns the operating point the scheduler reads rates and ratios
// from.
func (s *Reference) State() *taskmodel.State { return s.state }

// Start schedules the first release of every task at the current instant.
// It must be called exactly once.
func (s *Reference) Start() {
	if s.started {
		panic("sched: Start called twice")
	}
	s.started = true
	for ti := range s.sys.Tasks {
		ti := taskmodel.TaskID(ti)
		schedule(s.eng, s.eng.Now(), func(now simtime.Time) { s.releaseFirst(ti, now) })
	}
}

// CountersInto writes the cumulative per-task accounting into dst, growing
// it if needed, and returns it.
func (s *Reference) CountersInto(dst []TaskCounter) []TaskCounter {
	if cap(dst) < len(s.counters) {
		dst = make([]TaskCounter, len(s.counters))
	}
	dst = dst[:len(s.counters)]
	copy(dst, s.counters)
	return dst
}

// SampleUtilizationsInto writes each ECU's busy-time fraction since the
// previous call into dst, growing it if needed, and starts a new window.
func (s *Reference) SampleUtilizationsInto(dst []units.Util) []units.Util {
	now := s.eng.Now()
	if cap(dst) < len(s.ecus) {
		dst = make([]units.Util, len(s.ecus))
	}
	dst = dst[:len(s.ecus)]
	for j, e := range s.ecus {
		dst[j] = e.sampleWindow(now)
	}
	return dst
}

// releaseFirst releases a new instance of task ti and schedules the next
// periodic release.
func (s *Reference) releaseFirst(ti taskmodel.TaskID, now simtime.Time) {
	period := s.state.Period(ti)
	n := len(s.sys.Tasks[ti].Subtasks)
	c := &refChain{
		task:     ti,
		instance: s.counters[ti].Released,
		release:  now,
		deadline: now.Add(period * simtime.Duration(n)),
		period:   period,
	}
	s.counters[ti].Released++
	// The deadline event aborts the chain if it has not completed. It is
	// scheduled before the next release so that, at equal timestamps, the
	// previous instance resolves before a new one starts.
	schedule(s.eng, c.deadline, func(simtime.Time) { s.chainDeadline(c) })
	schedule(s.eng, now.Add(period), func(next simtime.Time) { s.releaseFirst(ti, next) })
	s.releaseStage(c, 0, now)
}

// releaseStage releases subtask `stage` of chain c, honouring the release
// guard.
func (s *Reference) releaseStage(c *refChain, stage int, now simtime.Time) {
	ref := taskmodel.SubtaskRef{Task: c.task, Index: stage}
	at := now
	if s.cfg.Sync == SyncReleaseGuard || stage == 0 {
		if last, ok := s.lastRel[ref]; ok {
			if guard := last.Add(c.period); guard > at {
				at = guard
			}
		}
	}
	if at > now {
		schedule(s.eng, at, func(t simtime.Time) { s.admitJob(c, stage, t) })
		return
	}
	s.admitJob(c, stage, now)
}

// admitJob creates the job for subtask `stage` of chain c and enqueues it
// on its ECU.
func (s *Reference) admitJob(c *refChain, stage int, now simtime.Time) {
	if c.dead {
		return // chain was aborted while the release was pending
	}
	ref := taskmodel.SubtaskRef{Task: c.task, Index: stage}
	s.lastRel[ref] = now
	sub := s.sys.Subtask(ref)
	demand := s.cfg.Exec.Demand(s.sys, ref, now, s.state.Ratio(ref))
	s.nextSeq++
	j := &refJob{
		chain:     c,
		ref:       ref,
		release:   now,
		remaining: demand,
		priority:  float64(c.period),
		seq:       s.nextSeq,
		index:     -1,
	}
	c.stage = stage
	c.job = j
	s.ecus[sub.ECU].enqueue(j, now)
}

// jobFinished is called by an ECU runner when a job runs to completion.
func (s *Reference) jobFinished(j *refJob, now simtime.Time) {
	c := j.chain
	if c.dead {
		return
	}
	c.job = nil
	next := c.stage + 1
	if next < len(s.sys.Tasks[c.task].Subtasks) {
		from := s.sys.Subtask(j.ref).ECU
		to := s.sys.Tasks[c.task].Subtasks[next].ECU
		var delay simtime.Duration
		if s.cfg.LinkDelay != nil {
			delay = s.cfg.LinkDelay(from, to)
		}
		if delay > 0 {
			schedule(s.eng, now.Add(delay), func(t simtime.Time) {
				if !c.dead {
					s.releaseStage(c, next, t)
				}
			})
		} else {
			s.releaseStage(c, next, now)
		}
		return
	}
	// Last subtask done: the instance met its end-to-end deadline (the
	// deadline event observes c.dead and becomes a no-op).
	c.dead = true
	s.counters[c.task].Completed++
	if s.cfg.OnChain != nil {
		s.cfg.OnChain(ChainEvent{
			Task: c.task, Instance: c.instance,
			Release: c.release, Deadline: c.deadline,
			Completed: now, Missed: false,
		})
	}
}

// chainDeadline fires at a chain's absolute end-to-end deadline and aborts
// it if it has not completed.
func (s *Reference) chainDeadline(c *refChain) {
	if c.dead {
		return
	}
	c.dead = true
	if j := c.job; j != nil {
		s.ecus[s.sys.Subtask(j.ref).ECU].abort(j, s.eng.Now())
		c.job = nil
	}
	s.counters[c.task].Missed++
	if s.cfg.OnChain != nil {
		s.cfg.OnChain(ChainEvent{
			Task: c.task, Instance: c.instance,
			Release: c.release, Deadline: c.deadline,
			Missed: true,
		})
	}
}

// refChain is one live instance of an end-to-end task, freshly allocated
// per release and left for the garbage collector.
type refChain struct {
	task     taskmodel.TaskID
	instance uint64
	release  simtime.Time
	deadline simtime.Time
	period   simtime.Duration
	stage    int
	job      *refJob
	dead     bool
}

// refJob is one released subtask instance, freshly allocated per admission.
type refJob struct {
	chain     *refChain
	ref       taskmodel.SubtaskRef
	release   simtime.Time
	remaining simtime.Duration
	priority  float64 // smaller = higher priority
	seq       uint64  // FIFO tie-break
	index     int     // position in the ready heap; -1 when not queued
}

// refECURunner simulates one preemptive fixed-priority processor, mirroring
// ecuRunner with the allocating completion closure.
type refECURunner struct {
	sched *Reference
	id    int

	ready      refReadyHeap
	running    *refJob
	startedAt  simtime.Time
	completion simtime.EventID

	busy       simtime.Duration
	lastSample simtime.Time
}

// enqueue admits a job and re-evaluates dispatch.
func (e *refECURunner) enqueue(j *refJob, now simtime.Time) {
	heap.Push(&e.ready, j)
	e.dispatch(now)
}

// abort removes a job wherever it is (running or ready).
func (e *refECURunner) abort(j *refJob, now simtime.Time) {
	if e.running == j {
		e.haltRunning(now)
		e.dispatch(now)
		return
	}
	if j.index >= 0 {
		heap.Remove(&e.ready, j.index)
	}
}

// dispatch enforces the fixed-priority invariant after any queue change.
func (e *refECURunner) dispatch(now simtime.Time) {
	if e.running != nil {
		if len(e.ready) == 0 || !e.ready[0].higherPriorityThan(e.running) {
			return
		}
		preempted := e.haltRunning(now)
		if preempted.remaining == 0 {
			e.sched.jobFinished(preempted, now)
			e.dispatch(now)
			return
		}
		heap.Push(&e.ready, preempted)
	}
	if len(e.ready) == 0 {
		return
	}
	next := heap.Pop(&e.ready).(*refJob)
	e.running = next
	e.startedAt = now
	e.completion = schedule(e.sched.eng, now.Add(next.remaining), e.complete)
}

// haltRunning stops the running job, charging its elapsed CPU time and
// updating its remaining demand.
func (e *refECURunner) haltRunning(now simtime.Time) *refJob {
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
func (e *refECURunner) complete(now simtime.Time) {
	j := e.running
	e.busy += now.Sub(e.startedAt)
	j.remaining = 0
	e.running = nil
	e.sched.jobFinished(j, now)
	e.dispatch(now)
}

// sampleWindow closes the current monitoring window and returns its busy
// fraction.
func (e *refECURunner) sampleWindow(now simtime.Time) units.Util {
	if e.running != nil {
		elapsed := now.Sub(e.startedAt)
		e.busy += elapsed
		e.running.remaining -= elapsed
		if e.running.remaining < 0 {
			e.running.remaining = 0
		}
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

// higherPriorityThan mirrors job.higherPriorityThan.
func (j *refJob) higherPriorityThan(other *refJob) bool {
	if j.priority != other.priority {
		return j.priority < other.priority
	}
	if j.release != other.release {
		return j.release < other.release
	}
	return j.seq < other.seq
}

// refReadyHeap orders jobs by higherPriorityThan.
type refReadyHeap []*refJob

func (h refReadyHeap) Len() int           { return len(h) }
func (h refReadyHeap) Less(i, j int) bool { return h[i].higherPriorityThan(h[j]) }
func (h refReadyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refReadyHeap) Push(x any) {
	j := x.(*refJob)
	j.index = len(*h)
	*h = append(*h, j)
}

func (h *refReadyHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}
