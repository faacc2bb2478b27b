// Package sched simulates the distributed real-time execution substrate of
// the paper: per-ECU preemptive fixed-priority scheduling (RMS /
// deadline-monotonic on the evenly-split subdeadlines of Section V.A.3),
// end-to-end task chains synchronized by the release-guard protocol, job
// abortion at the end-to-end deadline ("the computation result becomes
// obsolete and has to be discarded", Section III), windowed CPU-utilization
// monitoring, and per-task deadline-miss accounting.
//
// The simulation is event-driven on a simtime.Engine: events are periodic
// first-subtask releases, delayed successor releases, job completions, and
// the end-to-end deadlines of multi-stage chains. A single-stage chain's
// deadline falls on the instant of its task's next release, so that
// release resolves it instead of a deadline event of its own. Identical
// seeds produce identical traces.
//
// Scheduler is the production implementation: chains and jobs are recycled
// through intrusive free lists owned by the Scheduler, release-guard state
// lives in a dense per-subtask slice, and every event is scheduled through
// a package-level trampoline and a pooled argument, so a steady-state
// simulation performs zero heap allocations per chain instance, from its
// release through every admission and completion to its deadline.
// The test files retain Reference, the naive allocating implementation;
// the equivalence tests require byte-identical traces between the two.
package sched

import (
	"errors"
	"fmt"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// ChainEvent describes the fate of one end-to-end task instance. It is
// delivered to the OnChain callback when the instance either completes all
// subtasks or is aborted at its end-to-end deadline.
type ChainEvent struct {
	Task     taskmodel.TaskID
	Instance uint64
	// Release is when the first subtask was released.
	Release simtime.Time
	// Deadline is the absolute end-to-end deadline: Release plus one
	// period per subtask (the deadline d_i is evenly divided into
	// subdeadlines p = d_i/n_i, and the task releases every p —
	// Section V.A.3).
	Deadline simtime.Time
	// Completed is when the last subtask finished; meaningful only when
	// Missed is false.
	Completed simtime.Time
	// Missed reports that the instance was aborted at its deadline.
	Missed bool
}

// SyncPolicy selects how successive subtasks of a chain are released.
type SyncPolicy int

const (
	// SyncReleaseGuard is the paper's non-greedy protocol [26]: a
	// subtask's release is separated from its previous release by at
	// least the task period, smoothing bursts at the cost of added
	// latency. The default.
	SyncReleaseGuard SyncPolicy = iota
	// SyncGreedy releases a successor the instant its predecessor
	// completes. Provided for the release-guard ablation: greedy
	// synchronization admits bursts that inflate interference on shared
	// ECUs.
	SyncGreedy
)

// Config carries the pluggable pieces of the scheduler.
type Config struct {
	// Exec produces actual job demands. Required.
	Exec exectime.Model
	// Sync selects the chain synchronization protocol. Default
	// SyncReleaseGuard.
	Sync SyncPolicy
	// LinkDelay, if non-nil, returns the communication delay inserted
	// between the completion of a subtask on fromECU and the
	// release-guard release of its successor on toECU (Section IV.E.1).
	LinkDelay func(fromECU, toECU int) simtime.Duration
	// OnChain, if non-nil, is invoked for every completed or missed task
	// instance. Used by the vehicle co-simulation to apply (or hold)
	// actuation commands.
	OnChain func(ev ChainEvent)
}

// TaskCounter is the cumulative accounting for one task.
type TaskCounter struct {
	// Released counts chain instances whose first subtask was released.
	Released uint64
	// Completed counts instances that finished before their deadline.
	Completed uint64
	// Missed counts instances aborted at their end-to-end deadline.
	Missed uint64
}

// MissRatio returns Missed / (Completed + Missed), or 0 when no instance
// has resolved yet.
func (c TaskCounter) MissRatio() float64 {
	resolved := c.Completed + c.Missed
	if resolved == 0 {
		return 0
	}
	return float64(c.Missed) / float64(resolved)
}

// Sub returns the counter delta c − earlier, for windowed statistics.
func (c TaskCounter) Sub(earlier TaskCounter) TaskCounter {
	return TaskCounter{
		Released:  c.Released - earlier.Released,
		Completed: c.Completed - earlier.Completed,
		Missed:    c.Missed - earlier.Missed,
	}
}

// Driver is what the middleware reads from a chain scheduler on each
// control tick. Scheduler is the one production implementation; the
// substrate golden tests also drive the middleware over the naive
// Reference oracle, which lives in this package's test files.
type Driver interface {
	// State returns the operating point the scheduler reads rates and
	// ratios from.
	State() *taskmodel.State
	// CountersInto writes the per-task accounting into dst (grown if
	// needed) and returns it.
	CountersInto(dst []TaskCounter) []TaskCounter
	// SampleUtilizationsInto writes each ECU's busy fraction since the
	// previous sample into dst (grown if needed), starts a new window and
	// returns dst.
	SampleUtilizationsInto(dst []units.Util) []units.Util
}

// Scheduler drives the distributed task set on a simulation engine. It
// owns two intrusive object pools (chains and jobs, recycled through
// nextFree links) and never schedules a closure: all event callbacks are
// package-level functions bound to pre-allocated arguments.
type Scheduler struct {
	eng   *simtime.Engine
	sys   *taskmodel.System
	state *taskmodel.State
	cfg   Config

	ecus []*ecuRunner
	// stageBase flattens SubtaskRef into an index for lastRel:
	// stageBase[task] + stage.
	stageBase []int
	// lastRel is the release-guard state: the previous release instant of
	// each subtask, or -1 before its first release. Dense replacement for
	// the map the Reference keeps.
	lastRel []simtime.Time
	// due holds, per single-stage task, the live instance whose deadline
	// is the task's next release instant, or nil. The next release aborts
	// it before starting a new instance (see releaseFirst); completion
	// clears it.
	due      []*chain
	counters []TaskCounter
	// taskArgs pre-binds the periodic first-release callback argument for
	// each task, so releases schedule no closures.
	//lint:sticky pre-bound (s, ti) callback arguments, constant after New; only their addresses are taken
	taskArgs  []taskArg
	freeChain *chain
	freeJob   *job
	// allChains/allJobs register every pooled object ever allocated, so
	// Reset can rebuild the free lists even when a mid-run engine stop
	// left objects live outside them. Appended only when a pool grows.
	allChains []*chain
	allJobs   []*job
	nextSeq   uint64
	started   bool
}

// taskArg is the pre-bound argument of a task's periodic release events.
type taskArg struct {
	s  *Scheduler
	ti taskmodel.TaskID
}

// New assembles a scheduler for the validated system at the given operating
// point. Call Start to schedule the initial releases.
func New(eng *simtime.Engine, state *taskmodel.State, cfg Config) *Scheduler {
	if cfg.Exec == nil {
		panic("sched: Config.Exec is required")
	}
	sys := state.System()
	s := &Scheduler{
		eng:      eng,
		sys:      sys,
		state:    state,
		cfg:      cfg,
		due:      make([]*chain, len(sys.Tasks)),
		counters: make([]TaskCounter, len(sys.Tasks)),
	}
	s.stageBase = make([]int, len(sys.Tasks))
	total := 0
	for ti, task := range sys.Tasks {
		s.stageBase[ti] = total
		total += len(task.Subtasks)
	}
	s.lastRel = make([]simtime.Time, total)
	for i := range s.lastRel {
		s.lastRel[i] = -1
	}
	s.taskArgs = make([]taskArg, len(sys.Tasks))
	for ti := range s.taskArgs {
		s.taskArgs[ti] = taskArg{s: s, ti: taskmodel.TaskID(ti)}
	}
	s.ecus = make([]*ecuRunner, sys.NumECUs)
	for j := range s.ecus {
		s.ecus[j] = &ecuRunner{sched: s, id: j, lastSample: eng.Now()}
	}
	return s
}

// State returns the operating point the scheduler reads rates and ratios
// from. Controllers mutate it between control periods.
func (s *Scheduler) State() *taskmodel.State { return s.state }

// Start schedules the first release of every task at the current instant.
// It must be called exactly once.
//
//lint:certify noalloc,nopanic,deterministic initial releases: one pooled ScheduleCall per task
func (s *Scheduler) Start() {
	if s.started {
		panic("sched: Start called twice") //lint:allow effects double Start would double every release train; failing loudly is the contract
	}
	s.started = true
	for ti := range s.sys.Tasks {
		s.eng.ScheduleCall(s.eng.Now(), firstReleaseEvent, &s.taskArgs[ti])
	}
}

// Reset returns the scheduler to its freshly-constructed state for a new
// run under the given configuration, reusing every pooled chain and job —
// including objects left live by a mid-run engine stop, which the
// registries recover. The engine must already be reset (its pending
// events, including this scheduler's, are gone and Now is back to zero).
// A reset scheduler replays a workload exactly as a fresh one: counters
// zero, release guards clear, sequence numbers restart.
func (s *Scheduler) Reset(cfg Config) {
	if cfg.Exec == nil {
		panic("sched: Config.Exec is required") //lint:allow effects a nil execution model is a caller bug caught before any event fires
	}
	s.cfg = cfg
	for i := range s.counters {
		s.counters[i] = TaskCounter{}
	}
	for i := range s.lastRel {
		s.lastRel[i] = -1
	}
	for i := range s.due {
		s.due[i] = nil
	}
	s.freeChain = nil
	for _, c := range s.allChains {
		c.job = nil
		c.dead = false
		c.deadlineEv = 0
		c.pendingEv = 0
		c.pendingStage = 0
		c.nextFree = s.freeChain
		s.freeChain = c
	}
	s.freeJob = nil
	for _, j := range s.allJobs {
		j.chain = nil
		j.index = -1
		j.nextFree = s.freeJob
		s.freeJob = j
	}
	now := s.eng.Now()
	for _, e := range s.ecus {
		e.reset(now)
	}
	s.nextSeq = 0
	s.started = false
}

// Reconfigure swaps the behavioral configuration — execution-time model,
// link-delay model, chain observer, sync policy — without touching any
// execution state. Session.Resume uses it to install the continuation's
// models on a copied or partially run scheduler.
func (s *Scheduler) Reconfigure(cfg Config) {
	if cfg.Exec == nil {
		panic("sched: Config.Exec is required")
	}
	s.cfg = cfg
}

// CopyFrom overwrites s's execution state with src's: configuration,
// per-task counters, release guards, the due chains, both pools with
// their free lists, and every ECU runner. Both schedulers must be built
// over the same system shape; src is only read. Pooled objects are copied
// whole and their cross-references re-pointed into s's pools by pool
// index, so s's pools end up mirroring src's slot for slot. Objects s
// owns beyond src's pool sizes are pushed onto the copied free lists: that
// changes which physical object a later allocation hands out, but nothing
// observable, since every allocation site initializes the object.
//
// The engine is copied separately (simtime.Engine.CopyFrom, with
// RebindArg), after this, so pending events rebind into the copied pools;
// the EventIDs copied here stay valid because the engine copy keeps slot
// generations.
func (s *Scheduler) CopyFrom(src *Scheduler) {
	s.cfg = src.cfg
	s.counters = append(s.counters[:0], src.counters...)
	s.lastRel = append(s.lastRel[:0], src.lastRel...)
	for len(s.allChains) < len(src.allChains) {
		s.allChains = append(s.allChains, &chain{poolIdx: int32(len(s.allChains))})
	}
	for len(s.allJobs) < len(src.allJobs) {
		s.allJobs = append(s.allJobs, &job{poolIdx: int32(len(s.allJobs))})
	}
	for i, c := range src.allChains {
		d := s.allChains[i]
		*d = *c
		d.s = s
		d.job = s.jobAt(c.job)
		d.nextFree = s.chainAt(c.nextFree)
	}
	for i, j := range src.allJobs {
		d := s.allJobs[i]
		*d = *j
		d.chain = s.chainAt(j.chain)
		d.nextFree = s.jobAt(j.nextFree)
	}
	for i, c := range src.due {
		s.due[i] = s.chainAt(c)
	}
	s.freeChain = s.chainAt(src.freeChain)
	s.freeJob = s.jobAt(src.freeJob)
	for _, c := range s.allChains[len(src.allChains):] {
		*c = chain{s: s, nextFree: s.freeChain, poolIdx: c.poolIdx}
		s.freeChain = c
	}
	for _, j := range s.allJobs[len(src.allJobs):] {
		*j = job{index: -1, nextFree: s.freeJob, poolIdx: j.poolIdx}
		s.freeJob = j
	}
	for i, e := range s.ecus {
		ready := e.ready[:0]
		*e = *src.ecus[i]
		e.sched = s
		e.ready = ready
		for _, j := range src.ecus[i].ready {
			e.ready = append(e.ready, s.jobAt(j))
		}
		e.running = s.jobAt(e.running)
	}
	s.nextSeq = src.nextSeq
	s.started = src.started
}

// chainAt and jobAt map a pooled object of the scheduler being copied to
// the object at the same pool index in s.
func (s *Scheduler) chainAt(c *chain) *chain {
	if c == nil {
		return nil
	}
	return s.allChains[c.poolIdx]
}

func (s *Scheduler) jobAt(j *job) *job {
	if j == nil {
		return nil
	}
	return s.allJobs[j.poolIdx]
}

// ErrUnknownEventArg reports a pending engine event whose argument neither
// the scheduler nor the session layer owns — typically an instrumentation
// ticker, which cannot be rebound to another session.
var ErrUnknownEventArg = errors.New("sched: event argument is not a copyable type")

// RebindArg maps a pending event argument owned by the scheduler s was
// copied from to s's counterpart, reporting false for arguments the
// scheduler does not own. It is the scheduler's part of the rebind
// callback simtime.Engine.CopyFrom takes, and runs after CopyFrom so every
// pool index resolves.
func (s *Scheduler) RebindArg(arg any) (any, bool) {
	switch v := arg.(type) {
	case *taskArg:
		return &s.taskArgs[v.ti], true
	case *chain:
		return s.chainAt(v), true
	case *ecuRunner:
		return s.ecus[v.id], true
	}
	return nil, false
}

// CountersInto writes the cumulative per-task accounting into dst, growing
// it if needed, and returns it. The control tick calls this with a reused
// buffer so sampling allocates nothing; a nil dst returns a fresh snapshot.
//
//lint:certify noalloc,nopanic,deterministic control-tick counter snapshot; first-call sizing is the one audited allocation
func (s *Scheduler) CountersInto(dst []TaskCounter) []TaskCounter {
	if cap(dst) < len(s.counters) {
		dst = make([]TaskCounter, len(s.counters)) //lint:allow effects first-call sizing; steady state reuses dst
	}
	dst = dst[:len(s.counters)]
	copy(dst, s.counters)
	return dst
}

// SampleUtilizationsInto writes each ECU's busy-time fraction since the
// previous call (the paper's utilization monitor) into dst, growing it if
// needed, and starts a new window. Windows with zero width read 0. The
// control tick calls this with a reused buffer so sampling allocates
// nothing.
//
//lint:certify noalloc,nopanic,deterministic control-tick utilization sampling; first-call sizing is the one audited allocation
func (s *Scheduler) SampleUtilizationsInto(dst []units.Util) []units.Util {
	now := s.eng.Now()
	if cap(dst) < len(s.ecus) {
		dst = make([]units.Util, len(s.ecus)) //lint:allow effects first-call sizing; steady state reuses dst
	}
	dst = dst[:len(s.ecus)]
	for j, e := range s.ecus {
		dst[j] = e.sampleWindow(now)
	}
	return dst
}

// --- pooled event callbacks ---
//
// All four are package-level functions: the engine stores the function
// value and the argument pointer in a recycled event slot, so scheduling
// them never allocates. The argument is the pre-bound per-task taskArg for
// periodic releases and the *chain itself for chain-lifecycle events.

// firstReleaseEvent fires a task's periodic release, first resolving the
// previous single-stage instance whose deadline is this instant.
//
//lint:certify noalloc,nopanic,deterministic periodic release trampoline: the full release→admit→dispatch cycle recycles pooled objects
func firstReleaseEvent(now simtime.Time, arg any) {
	ta := arg.(*taskArg)
	ta.s.releaseFirst(ta.ti, now)
}

// chainDeadlineEvent fires at a chain's absolute end-to-end deadline.
//
//lint:certify noalloc,nopanic,deterministic deadline-abort trampoline: cancellation and pool recycling only
func chainDeadlineEvent(_ simtime.Time, arg any) {
	c := arg.(*chain)
	c.s.chainDeadline(c)
}

// guardReleaseEvent fires a release-guard-delayed subtask admission
// (c.pendingStage holds which stage was held back).
//
//lint:certify noalloc,nopanic,deterministic release-guard trampoline: delayed admission of a held-back stage
func guardReleaseEvent(now simtime.Time, arg any) {
	c := arg.(*chain)
	c.pendingEv = 0
	c.s.admitJob(c, c.pendingStage, now)
}

// linkReleaseEvent fires a successor release after a communication delay.
//
//lint:certify noalloc,nopanic,deterministic link-delay trampoline: successor release after communication latency
func linkReleaseEvent(now simtime.Time, arg any) {
	c := arg.(*chain)
	c.pendingEv = 0
	if !c.dead {
		c.s.releaseStage(c, c.pendingStage, now)
	}
}

// --- chain/job pools ---

// getChain takes a chain from the intrusive free list (or allocates the
// pool's next object). The caller initializes every field.
func (s *Scheduler) getChain() *chain {
	c := s.freeChain
	if c == nil {
		c = &chain{s: s, poolIdx: int32(len(s.allChains))} //lint:allow effects pool refill when empty; steady state recycles via putChain
		s.allChains = append(s.allChains, c)
		return c
	}
	s.freeChain = c.nextFree
	c.nextFree = nil
	return c
}

// putChain recycles a resolved chain. The chain must have no outstanding
// engine events, due entry or live job: completion cancels the deadline
// event or clears the due entry, and the deadline path cancels any pending
// delayed release, before freeing.
func (s *Scheduler) putChain(c *chain) {
	c.job = nil
	c.nextFree = s.freeChain
	s.freeChain = c
}

// getJob takes a job from the intrusive free list. The caller initializes
// every field.
func (s *Scheduler) getJob() *job {
	j := s.freeJob
	if j == nil {
		j = &job{poolIdx: int32(len(s.allJobs))} //lint:allow effects pool refill when empty; steady state recycles via putJob
		s.allJobs = append(s.allJobs, j)
		return j
	}
	s.freeJob = j.nextFree
	j.nextFree = nil
	return j
}

// putJob recycles a job that is neither running nor queued on any ECU.
func (s *Scheduler) putJob(j *job) {
	j.chain = nil
	j.nextFree = s.freeJob
	s.freeJob = j
}

// releaseFirst releases a new instance of task ti and schedules the next
// periodic release. The period is read from the current rate, so rate
// changes by the inner controller take effect at the next release.
func (s *Scheduler) releaseFirst(ti taskmodel.TaskID, now simtime.Time) {
	if c := s.due[ti]; c != nil {
		// The previous single-stage instance is still live and its
		// deadline is now: abort it before the new instance starts, as
		// its own deadline event would have (see below).
		s.due[ti] = nil
		s.chainDeadline(c)
	}
	period := s.state.Period(ti)
	n := len(s.sys.Tasks[ti].Subtasks)
	c := s.getChain() //lint:allow effects pool refill when empty; steady state recycles via putChain
	c.task = ti
	c.instance = s.counters[ti].Released
	c.release = now
	c.deadline = now.Add(period * simtime.Duration(n))
	c.period = period
	c.stage = 0
	c.job = nil
	c.dead = false
	c.pendingEv = 0
	c.pendingStage = 0
	s.counters[ti].Released++
	// The deadline aborts the chain if it has not completed, and must
	// resolve before the next instance starts. A multi-stage chain gets a
	// deadline event, scheduled just ahead of the next release. A
	// single-stage chain's deadline is that release's instant, and the two
	// events would hold adjacent sequence numbers, so nothing could run
	// between them: the next release resolves the chain through due
	// instead, in the same order, one event cheaper.
	if n == 1 {
		c.deadlineEv = 0
		s.due[ti] = c
	} else {
		c.deadlineEv = s.eng.ScheduleCall(c.deadline, chainDeadlineEvent, c)
	}
	s.eng.ScheduleCall(now.Add(period), firstReleaseEvent, &s.taskArgs[ti])
	s.releaseStage(c, 0, now)
}

// releaseStage releases subtask `stage` of chain c, honouring the release
// guard: consecutive releases of the same subtask are separated by at least
// the chain period (unless greedy synchronization was configured).
func (s *Scheduler) releaseStage(c *chain, stage int, now simtime.Time) {
	at := now
	// Greedy synchronization only affects successor stages; the first
	// stage's periodic separation is always guarded so a rate decrease
	// between releases cannot produce a short gap.
	if s.cfg.Sync == SyncReleaseGuard || stage == 0 {
		if last := s.lastRel[s.stageBase[c.task]+stage]; last >= 0 {
			if guard := last.Add(c.period); guard > at {
				at = guard
			}
		}
	}
	if at > now {
		c.pendingStage = stage
		c.pendingEv = s.eng.ScheduleCall(at, guardReleaseEvent, c)
		return
	}
	s.admitJob(c, stage, now)
}

// admitJob creates the job for subtask `stage` of chain c and enqueues it on
// its ECU.
func (s *Scheduler) admitJob(c *chain, stage int, now simtime.Time) {
	if c.dead {
		return // chain was aborted while the release was pending
	}
	ref := taskmodel.SubtaskRef{Task: c.task, Index: stage}
	s.lastRel[s.stageBase[c.task]+stage] = now
	sub := s.sys.Subtask(ref)
	demand := s.cfg.Exec.Demand(s.sys, ref, now, s.state.Ratio(ref))
	s.nextSeq++
	j := s.getJob() //lint:allow effects pool refill when empty; steady state recycles via putJob
	j.chain = c
	j.ref = ref
	j.release = now
	j.remaining = demand
	// Rate-monotonic priority on the subtask period d_i/n_i (every
	// stage of a chain runs at the task rate and owns one period as
	// its subdeadline); smaller is more urgent.
	j.priority = float64(c.period)
	j.seq = s.nextSeq
	j.index = -1
	c.stage = stage
	c.job = j
	s.ecus[sub.ECU].enqueue(j, now)
}

// jobFinished is called by an ECU runner when a job runs to completion.
func (s *Scheduler) jobFinished(j *job, now simtime.Time) {
	c := j.chain
	if c.dead {
		return
	}
	c.job = nil
	ref := j.ref
	s.putJob(j)
	next := c.stage + 1
	if next < len(s.sys.Tasks[c.task].Subtasks) {
		from := s.sys.Subtask(ref).ECU
		to := s.sys.Tasks[c.task].Subtasks[next].ECU
		var delay simtime.Duration
		if s.cfg.LinkDelay != nil {
			delay = s.cfg.LinkDelay(from, to) //lint:hookpoint link-delay models are pure seeded delay tables; the bus package pins that contract
		}
		if delay > 0 {
			c.pendingStage = next
			c.pendingEv = s.eng.ScheduleCall(now.Add(delay), linkReleaseEvent, c)
		} else {
			s.releaseStage(c, next, now)
		}
		return
	}
	// Last subtask done: the instance met its end-to-end deadline. Drop
	// whatever would abort it — the due entry of a single-stage chain, or
	// the pending deadline event, whose argument is this chain, which is
	// about to be recycled; the generation-checked cancel guarantees the
	// slot's next occupant is unaffected.
	c.dead = true
	if s.due[c.task] == c {
		s.due[c.task] = nil
	} else {
		s.eng.Cancel(c.deadlineEv)
	}
	s.counters[c.task].Completed++
	if s.cfg.OnChain != nil {
		//lint:hookpoint chain observers are application callbacks (actuation, logging) outside the certified substrate
		s.cfg.OnChain(ChainEvent{
			Task: c.task, Instance: c.instance,
			Release: c.release, Deadline: c.deadline,
			Completed: now, Missed: false,
		})
	}
	s.putChain(c)
}

// chainDeadline fires at a chain's absolute end-to-end deadline and aborts
// it if it has not completed: the stale result is discarded and the
// actuator keeps its previous command, exactly the failure mode of
// Figure 3.
func (s *Scheduler) chainDeadline(c *chain) {
	if c.dead {
		return
	}
	c.dead = true
	if c.pendingEv != 0 {
		// A release held back by the guard or a link delay is still in
		// flight; cancel it before the chain is recycled.
		s.eng.Cancel(c.pendingEv)
		c.pendingEv = 0
	}
	if j := c.job; j != nil {
		s.ecus[s.sys.Subtask(j.ref).ECU].abort(j, s.eng.Now())
		c.job = nil
		s.putJob(j)
	}
	s.counters[c.task].Missed++
	if s.cfg.OnChain != nil {
		//lint:hookpoint chain observers are application callbacks (actuation, logging) outside the certified substrate
		s.cfg.OnChain(ChainEvent{
			Task: c.task, Instance: c.instance,
			Release: c.release, Deadline: c.deadline,
			Missed: true,
		})
	}
	s.putChain(c)
}

// chain is one live instance of an end-to-end task. Chains are recycled
// through the Scheduler's intrusive free list; a chain returns to the pool
// only when every engine event referencing it has fired or been cancelled.
type chain struct {
	s        *Scheduler
	task     taskmodel.TaskID
	instance uint64
	release  simtime.Time
	deadline simtime.Time
	period   simtime.Duration
	stage    int
	job      *job
	dead     bool
	// deadlineEv is the pending end-to-end deadline event, cancelled when
	// the chain completes. It is 0 for a single-stage chain, which the
	// Scheduler's due entry resolves instead.
	deadlineEv simtime.EventID
	// pendingEv is the in-flight delayed release (release guard or link
	// delay), or 0. pendingStage is the stage it will admit. At most one
	// release is pending per chain: stages progress strictly in order.
	pendingEv    simtime.EventID
	pendingStage int
	nextFree     *chain
	// poolIdx is this chain's stable position in the allChains registry,
	// assigned once at allocation. CopyFrom and RebindArg re-point
	// cross-references (job→chain, engine event args) into another
	// scheduler's pools by it.
	poolIdx int32
}

// job is one released subtask instance awaiting or receiving CPU time.
// Jobs are recycled through the Scheduler's intrusive free list.
type job struct {
	chain     *chain
	ref       taskmodel.SubtaskRef
	release   simtime.Time
	remaining simtime.Duration
	priority  float64 // smaller = higher priority
	seq       uint64  // FIFO tie-break
	index     int     // position in the ready heap; -1 when not queued
	nextFree  *job
	// poolIdx is this job's stable position in the allJobs registry,
	// assigned once at allocation; see chain.poolIdx.
	poolIdx int32
}

func (j *job) String() string {
	return fmt.Sprintf("%v@%v", j.ref, j.release)
}
