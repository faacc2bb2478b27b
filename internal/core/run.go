package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Event is a scripted state change applied at an absolute simulation time —
// the vehicle-speed (rate-floor) steps and similar scenario actions.
type Event struct {
	At simtime.Time
	Do func(st *taskmodel.State)
}

// RunConfig describes one experiment run end to end.
type RunConfig struct {
	// System is the task set, validated by the run. Required.
	System *taskmodel.System
	// Setup optionally adjusts the initial operating point (e.g. apply
	// baseline.OpenLoop, pre-shed precision) before the scheduler starts.
	Setup func(st *taskmodel.State)
	// Exec is the actual-execution-time model. Required.
	Exec exectime.Model
	// LinkDelay optionally models the communication fabric
	// (bus.DelayFunc).
	LinkDelay func(fromECU, toECU int) simtime.Duration
	// Middleware selects and tunes the control arms.
	Middleware Config
	// Duration is the simulated run length. Required.
	Duration simtime.Duration
	// Events are scripted scenario actions.
	Events []Event
	// OnChain optionally observes every task-instance completion or miss
	// (the vehicle co-simulation consumes actuation commands here).
	OnChain func(ev sched.ChainEvent)
	// Attach optionally installs extra simulation processes (e.g. the
	// vehicle physics stepper) before the run starts.
	Attach func(eng *simtime.Engine, st *taskmodel.State)
	// OnInnerTick optionally observes every inner control period after
	// the middleware has acted, with the same utilization samples the
	// controllers saw. Baselines such as Direct Increase hook here.
	OnInnerTick func(now simtime.Time, utils []units.Util, st *taskmodel.State)
	// Rands registers deterministic random streams beyond the ones Exec
	// already carries (exectime.RandCarrier models register themselves) —
	// e.g. a bus.CANBus jitter stream. Only snapshot/fork consults this:
	// Session.Snapshot captures every registered stream's state and
	// Session.Resume rewinds the continuation's streams to it, so a fork
	// reproduces the exact sample sequences of the replayed run. Plain
	// runs ignore the field.
	Rands []*simtime.Rand
}

// RunResult carries everything the harnesses report on.
type RunResult struct {
	// Trace holds all recorded time series.
	Trace *trace.Recorder
	// Counters is the final cumulative per-task accounting.
	Counters []sched.TaskCounter
	// State is the final operating point.
	State *taskmodel.State
	// Solver totals the centralized inner MPC's solves over the run; it
	// stays zero for the OPEN arm and the decentralized inner loop. A run
	// that returns without error converged on every solve.
	Solver eucon.SolveStats
}

// Clone returns an independent deep copy of the result, for callers that
// must retain it past the owning Session's next run.
func (r *RunResult) Clone() *RunResult { return r.CloneInto(nil) }

// CloneInto deep-copies the result into dst and returns it, recycling
// dst's trace, counter, and state buffers: a campaign loop that rotates
// the previous batch's retained results back in as destinations pays the
// deep copy's memory cost once, not once per run. A nil dst allocates a
// fresh result (Clone semantics). dst must be caller-owned — a retired
// clone, never a live session's result.
func (r *RunResult) CloneInto(dst *RunResult) *RunResult {
	if dst == nil {
		dst = &RunResult{}
	}
	dst.Trace = r.Trace.CloneInto(dst.Trace)
	dst.Counters = append(dst.Counters[:0], r.Counters...)
	dst.State = r.State.CloneInto(dst.State)
	dst.Solver = r.Solver
	return dst
}

// OverallMissRatio aggregates misses across all tasks for the whole run.
func (r *RunResult) OverallMissRatio() float64 {
	var missed, resolved uint64
	for _, c := range r.Counters {
		missed += c.Missed
		resolved += c.Missed + c.Completed
	}
	if resolved == 0 {
		return 0
	}
	return float64(missed) / float64(resolved)
}

// MissRatio reports the cumulative miss ratio of one task.
func (r *RunResult) MissRatio(i taskmodel.TaskID) float64 {
	return r.Counters[i].MissRatio()
}

// Run executes one experiment: it validates the configuration, assembles
// engine + scheduler + middleware, schedules the scenario events, runs to
// cfg.Duration, and returns the collected results. It is a fresh Session
// used once and discarded, so the result is the caller's to keep.
func Run(cfg RunConfig) (*RunResult, error) {
	return NewSession().Run(cfg)
}

// RunStream executes the experiments produced by next — pulled on demand,
// so the config list never needs to exist in memory at once — over a pool
// of reusable Sessions, one per parallel.Stream slot, and streams the
// outcomes to onResult in input order. It is the fleet-scale batch runner: sessions
// are recycled across RunStream calls, so once the process has seen a
// campaign's shape, whole batches — including the first run of each
// worker — allocate approximately nothing.
//
// onResult is called serially, in input order, exactly once per config,
// with either a result or an error (never both non-nil). The *RunResult is
// owned by a session and valid only during the callback — it is overwritten
// once that session serves a later run. Callers that retain results must
// Clone them (or CloneInto a recycled slot of their own).
// workers <= 0 means parallel.Workers(); workers == 1 runs serially on one
// session. Results are byte-identical for every worker count.
func RunStream(next func() (RunConfig, bool), workers int, onResult func(i int, r *RunResult, err error)) {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	type outcome struct {
		res *RunResult
		err error
	}
	// One session per Stream slot, not per worker: a result stays parked in
	// its slot's session until the ordered emit reaches it, while the worker
	// moves on to the next item with a different slot's session.
	sessions := make([]*Session, parallel.Slots(workers))
	checkoutSessions(sessions)
	completed := false
	defer func() {
		// A panic can leave a session mid-run with its substrate invariants
		// broken; only a drained stream returns its sessions to the pool.
		if completed {
			returnSessions(sessions)
		}
	}()
	parallel.Stream(next, workers,
		func(slot, _ int, cfg RunConfig) outcome {
			s := sessions[slot]
			if s == nil {
				s = NewSession()
				sessions[slot] = s
			}
			res, err := s.Run(cfg)
			return outcome{res, err}
		},
		func(i int, o outcome) {
			onResult(i, o.res, o.err)
		})
	completed = true
}

// sessionPool recycles warm Sessions across RunStream (and therefore
// RunAll) calls: a pooled session whose shape matches the next campaign's
// configs skips the rebuild entirely, so back-to-back batches run at warm
// steady-state cost from their first run. Which pooled session serves
// which worker is irrelevant to results — a Session is byte-identical to
// a fresh Run regardless of what it executed before (the session golden
// tests pin that across shape switches). The pool holds at most the peak
// concurrent worker count ever checked out; sessions carry only reusable
// buffers, never goroutines or OS resources.
var sessionPool struct {
	mu   sync.Mutex
	free []*Session
}

// checkoutSessions fills dst's leading slots with up to len(dst) pooled
// sessions; the rest stay nil and are built lazily by the workers.
func checkoutSessions(dst []*Session) {
	sessionPool.mu.Lock()
	free := sessionPool.free
	n := min(len(dst), len(free))
	for i := 0; i < n; i++ {
		dst[i] = free[len(free)-1-i]
		free[len(free)-1-i] = nil
	}
	sessionPool.free = free[:len(free)-n]
	sessionPool.mu.Unlock()
}

// returnSessions puts every non-nil session back on the free list.
func returnSessions(src []*Session) {
	sessionPool.mu.Lock()
	for _, s := range src {
		if s != nil {
			sessionPool.free = append(sessionPool.free, s)
		}
	}
	sessionPool.mu.Unlock()
}

// RunAll executes several independent experiments over a bounded worker
// pool of reusable sessions and returns their results in input order.
// Sessions share nothing mutable across workers and reset completely
// between runs; parallelism changes wall-clock time only, never results.
// workers <= 0 means parallel.Workers(); workers == 1 runs serially.
//
// On failure RunAll reports every failing run, joined in input order with
// the lowest-indexed failure first (deterministic regardless of completion
// order), along with the full result slice — successful runs keep their
// results, failed entries are nil.
func RunAll(cfgs []RunConfig, workers int) ([]*RunResult, error) {
	results := make([]*RunResult, len(cfgs))
	errs := make([]error, 0, len(cfgs))
	i := 0
	next := func() (RunConfig, bool) {
		if i >= len(cfgs) {
			return RunConfig{}, false
		}
		cfg := cfgs[i]
		i++
		return cfg, true
	}
	RunStream(next, workers, func(j int, r *RunResult, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("core: run %d: %w", j, err))
			return
		}
		results[j] = r.Clone()
	})
	return results, errors.Join(errs...)
}
