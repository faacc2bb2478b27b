package sched

import (
	"errors"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
)

// Symbolic event-argument kinds owned by the scheduler; see
// simtime.EventArg. Kinds below 16 are reserved for the session layer.
const (
	argKindTaskArg uint8 = 16 + iota // Idx = task index into taskArgs
	argKindChain                     // Idx = chain pool index into allChains
	argKindECU                       // Idx = ECU id into ecus
)

// ErrUnknownEventArg reports a pending engine event whose argument the
// scheduler does not own (and the session layer did not claim either) —
// typically a closure or a co-simulation ticker, which cannot be rebound to
// another session.
var ErrUnknownEventArg = errors.New("sched: event argument is not a checkpointable type")

// EncodeEventArg translates a pending event's argument into its symbolic,
// session-independent form, reporting false for arguments the scheduler
// does not own.
func (s *Scheduler) EncodeEventArg(arg any) (simtime.EventArg, bool) {
	switch v := arg.(type) {
	case *taskArg:
		if v.s == s {
			return simtime.EventArg{Kind: argKindTaskArg, Idx: int32(v.ti)}, true
		}
	case *chain:
		if v.s == s {
			return simtime.EventArg{Kind: argKindChain, Idx: v.poolIdx}, true
		}
	case *ecuRunner:
		if v.sched == s {
			return simtime.EventArg{Kind: argKindECU, Idx: int32(v.id)}, true
		}
	}
	return simtime.EventArg{}, false
}

// DecodeEventArg is the inverse of EncodeEventArg against this scheduler's
// own pools, reporting false for kinds the scheduler does not own. The
// pools must already be restored (RestoreFrom) so every pool index resolves.
func (s *Scheduler) DecodeEventArg(a simtime.EventArg) (any, bool) {
	switch a.Kind {
	case argKindTaskArg:
		return &s.taskArgs[a.Idx], true
	case argKindChain:
		return s.allChains[a.Idx], true
	case argKindECU:
		return s.ecus[a.Idx], true
	}
	return nil, false
}

// Reconfigure swaps the behavioral configuration — execution-time model,
// link-delay model, chain observer, sync policy — without touching any
// execution state. Session.Resume uses it to install the continuation's
// models after Restore rebuilt the scheduler's state from a checkpoint.
func (s *Scheduler) Reconfigure(cfg Config) {
	if cfg.Exec == nil {
		panic("sched: Config.Exec is required")
	}
	s.cfg = cfg
}

// chainCheckpoint is one captured chain object. Pointer fields travel as
// pool indices (-1 for nil).
type chainCheckpoint struct {
	task         taskmodel.TaskID
	instance     uint64
	release      simtime.Time
	deadline     simtime.Time
	period       simtime.Duration
	stage        int
	job          int32
	dead         bool
	deadlineEv   simtime.EventID
	pendingEv    simtime.EventID
	pendingStage int
	nextFree     int32
}

// jobCheckpoint is one captured job object.
type jobCheckpoint struct {
	chain     int32
	ref       taskmodel.SubtaskRef
	release   simtime.Time
	remaining simtime.Duration
	priority  float64
	seq       uint64
	index     int
	nextFree  int32
}

// ecuCheckpoint is one captured ECU runner. ready holds job pool indices in
// heap-array order; the heap invariant is positional, so copying the array
// restores it exactly.
type ecuCheckpoint struct {
	ready      []int32
	running    int32
	startedAt  simtime.Time
	completion simtime.EventID
	busy       simtime.Duration
	lastSample simtime.Time
}

// SchedulerCheckpoint is a deep copy of a Scheduler's complete execution
// state: per-task counters, release-guard state, the due single-stage
// chains (as pool indices), the full chain and job pools with their free
// lists, and every ECU runner. Configuration (Exec, LinkDelay, OnChain) is
// deliberately not captured — models are functions that cannot be
// serialized and are re-supplied by Session.Resume — and structural fields
// (stageBase, taskArgs) are rebuilt from the system shape. A checkpoint holds no pointers into the captured scheduler, so it
// may be shared read-only across worker sessions.
type SchedulerCheckpoint struct {
	counters  []TaskCounter
	lastRel   []simtime.Time
	due       []int32
	chains    []chainCheckpoint
	jobs      []jobCheckpoint
	freeChain int32
	freeJob   int32
	ecus      []ecuCheckpoint
	nextSeq   uint64
	started   bool
}

func chainIdx(c *chain) int32 {
	if c == nil {
		return -1
	}
	return c.poolIdx
}

func jobIdx(j *job) int32 {
	if j == nil {
		return -1
	}
	return j.poolIdx
}

// CaptureFrom overwrites cp with a deep copy of s's execution state,
// recycling cp's backing arrays so repeated snapshots are allocation-free
// at steady state.
func (cp *SchedulerCheckpoint) CaptureFrom(s *Scheduler) {
	cp.counters = append(cp.counters[:0], s.counters...)
	cp.lastRel = append(cp.lastRel[:0], s.lastRel...)
	cp.due = cp.due[:0]
	for _, c := range s.due {
		cp.due = append(cp.due, chainIdx(c))
	}
	cp.chains = cp.chains[:0]
	for _, c := range s.allChains {
		cp.chains = append(cp.chains, chainCheckpoint{
			task:         c.task,
			instance:     c.instance,
			release:      c.release,
			deadline:     c.deadline,
			period:       c.period,
			stage:        c.stage,
			job:          jobIdx(c.job),
			dead:         c.dead,
			deadlineEv:   c.deadlineEv,
			pendingEv:    c.pendingEv,
			pendingStage: c.pendingStage,
			nextFree:     chainIdx(c.nextFree),
		})
	}
	cp.jobs = cp.jobs[:0]
	for _, j := range s.allJobs {
		cp.jobs = append(cp.jobs, jobCheckpoint{
			chain:     chainIdx(j.chain),
			ref:       j.ref,
			release:   j.release,
			remaining: j.remaining,
			priority:  j.priority,
			seq:       j.seq,
			index:     j.index,
			nextFree:  jobIdx(j.nextFree),
		})
	}
	cp.freeChain = chainIdx(s.freeChain)
	cp.freeJob = jobIdx(s.freeJob)
	if cap(cp.ecus) < len(s.ecus) {
		grown := make([]ecuCheckpoint, len(s.ecus))
		copy(grown, cp.ecus[:cap(cp.ecus)])
		cp.ecus = grown
	}
	cp.ecus = cp.ecus[:len(s.ecus)]
	for i, e := range s.ecus {
		ec := &cp.ecus[i]
		ec.ready = ec.ready[:0]
		for _, j := range e.ready {
			ec.ready = append(ec.ready, j.poolIdx)
		}
		ec.running = jobIdx(e.running)
		ec.startedAt = e.startedAt
		ec.completion = e.completion
		ec.busy = e.busy
		ec.lastSample = e.lastSample
	}
	cp.nextSeq = s.nextSeq
	cp.started = s.started
}

// RestoreTo overwrites s's execution state with the checkpoint's. The
// destination must be built over the same system shape (same task/subtask/
// ECU layout; the session layer guarantees this). Pools grow as needed;
// surplus pooled objects a larger destination already owns are appended to
// the tails of the restored free lists, which changes which physical object
// a later allocation hands out but nothing observable — pooled objects have
// no identity beyond their fields, which the allocation sites fully
// initialize.
//
// The engine is restored separately (simtime.EngineCheckpoint): RestoreTo
// must run first so DecodeEventArg can resolve pool indices for the
// engine's pending events, and the EventIDs restored here (deadline,
// pending release, completion) stay valid because the engine checkpoint
// preserves slot generations.
func (cp *SchedulerCheckpoint) RestoreTo(s *Scheduler) {
	s.counters = append(s.counters[:0], cp.counters...)
	s.lastRel = append(s.lastRel[:0], cp.lastRel...)
	for len(s.allChains) < len(cp.chains) {
		s.allChains = append(s.allChains, &chain{s: s, poolIdx: int32(len(s.allChains))})
	}
	for len(s.allJobs) < len(cp.jobs) {
		s.allJobs = append(s.allJobs, &job{poolIdx: int32(len(s.allJobs))})
	}
	chainAt := func(i int32) *chain {
		if i < 0 {
			return nil
		}
		return s.allChains[i]
	}
	jobAt := func(i int32) *job {
		if i < 0 {
			return nil
		}
		return s.allJobs[i]
	}
	for i := range cp.chains {
		cc, c := &cp.chains[i], s.allChains[i]
		c.task = cc.task
		c.instance = cc.instance
		c.release = cc.release
		c.deadline = cc.deadline
		c.period = cc.period
		c.stage = cc.stage
		c.job = jobAt(cc.job)
		c.dead = cc.dead
		c.deadlineEv = cc.deadlineEv
		c.pendingEv = cc.pendingEv
		c.pendingStage = cc.pendingStage
		c.nextFree = chainAt(cc.nextFree)
	}
	for i, ci := range cp.due {
		s.due[i] = chainAt(ci)
	}
	for i := range cp.jobs {
		jc, j := &cp.jobs[i], s.allJobs[i]
		j.chain = chainAt(jc.chain)
		j.ref = jc.ref
		j.release = jc.release
		j.remaining = jc.remaining
		j.priority = jc.priority
		j.seq = jc.seq
		j.index = jc.index
		j.nextFree = jobAt(jc.nextFree)
	}
	s.freeChain = chainAt(cp.freeChain)
	s.freeJob = jobAt(cp.freeJob)
	// Surplus objects join the free-list tails so they stay reachable.
	if len(s.allChains) > len(cp.chains) {
		tail := &s.freeChain
		for *tail != nil {
			tail = &(*tail).nextFree
		}
		for _, c := range s.allChains[len(cp.chains):] {
			c.job = nil
			c.dead = false
			c.deadlineEv = 0
			c.pendingEv = 0
			c.pendingStage = 0
			c.nextFree = nil
			*tail = c
			tail = &c.nextFree
		}
	}
	if len(s.allJobs) > len(cp.jobs) {
		tail := &s.freeJob
		for *tail != nil {
			tail = &(*tail).nextFree
		}
		for _, j := range s.allJobs[len(cp.jobs):] {
			j.chain = nil
			j.index = -1
			j.nextFree = nil
			*tail = j
			tail = &j.nextFree
		}
	}
	for i, e := range s.ecus {
		ec := &cp.ecus[i]
		for k := range e.ready {
			e.ready[k] = nil
		}
		e.ready = e.ready[:0]
		for _, ji := range ec.ready {
			e.ready = append(e.ready, s.allJobs[ji])
		}
		e.running = jobAt(ec.running)
		e.startedAt = ec.startedAt
		e.completion = ec.completion
		e.busy = ec.busy
		e.lastSample = ec.lastSample
	}
	s.nextSeq = cp.nextSeq
	s.started = cp.started
}
