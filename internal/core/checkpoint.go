package core

import (
	"fmt"

	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/precision"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
)

// Symbolic event-argument kinds owned by the session layer; kinds 16 and up
// belong to the scheduler (sched.EncodeEventArg). See simtime.EventArg.
const (
	argKindScenarioEvent uint8 = 1 + iota // Idx = index into Session.eventArgs
	argKindResumeEvent                    // Idx = index into Session.resumeArgs
	argKindMiddleware                     // the session's one Middleware; Idx unused
)

// encodeEventArg translates a pending engine event's argument into its
// symbolic session-independent form, trying the session's own kinds first
// and delegating everything else to the scheduler. An argument neither
// layer owns — a closure, an Attach-installed co-simulation ticker — makes
// the snapshot fail: such events cannot be rebound to another session.
func (s *Session) encodeEventArg(arg any) (simtime.EventArg, error) {
	switch v := arg.(type) {
	case *sessionEvent:
		if v.st == s.state {
			if v.resume {
				return simtime.EventArg{Kind: argKindResumeEvent, Idx: v.idx}, nil
			}
			return simtime.EventArg{Kind: argKindScenarioEvent, Idx: v.idx}, nil
		}
	case *Middleware:
		if v == s.mw {
			return simtime.EventArg{Kind: argKindMiddleware}, nil
		}
	}
	if a, ok := s.sch.EncodeEventArg(arg); ok {
		return a, nil
	}
	return simtime.EventArg{}, fmt.Errorf("core: %w (argument type %T)", sched.ErrUnknownEventArg, arg)
}

// decodeEventArg rebinds a symbolic event argument to this session's live
// objects. It runs only against arguments a Snapshot successfully encoded,
// and Restore rebuilds the event-argument buffers and scheduler pools
// before the engine decodes, so every kind and index resolves by
// construction.
func (s *Session) decodeEventArg(a simtime.EventArg) any {
	switch a.Kind {
	case argKindScenarioEvent:
		return &s.eventArgs[a.Idx]
	case argKindResumeEvent:
		return &s.resumeArgs[a.Idx]
	case argKindMiddleware:
		return s.mw
	}
	if v, ok := s.sch.DecodeEventArg(a); ok {
		return v
	}
	panic(fmt.Sprintf("core: checkpoint event argument kind %d is unknown", a.Kind))
}

// Checkpoint is a complete, self-contained copy of a live mid-run session:
// the engine's pending-event arena and clock, the scheduler's pools and
// counters, the operating point, the recorded traces, both controllers'
// cross-period state, the middleware bookkeeping, the scripted-event
// tables, and the states of every registered random stream.
//
// A checkpoint holds no pointers into the captured session (the immutable
// *taskmodel.System and the scripted-event funcs are shared by design —
// neither is ever mutated), so it may be restored into any Session,
// including concurrently into many worker sessions: Restore only reads the
// checkpoint. The checkpoint returned by Snapshot is caller-owned; the
// capturing session never writes to it again.
//
// The zero Checkpoint is empty and only useful as a SnapshotInto
// destination.
type Checkpoint struct {
	sys   *taskmodel.System
	mwCfg Config // normalized, the session's shape key

	eng simtime.EngineCheckpoint
	sch sched.SchedulerCheckpoint

	state *taskmodel.State
	rec   *trace.Recorder

	hasInner bool
	inner    eucon.ControllerCheckpoint
	hasOuter bool
	outer    precision.ControllerCheckpoint

	mwInnerCount   int
	mwStarted      bool
	mwLastCounters []sched.TaskCounter

	// events/resumeEvents mirror the session's scripted-event buffers; the
	// engine checkpoint references entries by index. The funcs are shared
	// with the captured run's config — scripted actions are immutable
	// behavior, not state.
	events       []func(st *taskmodel.State)
	resumeEvents []func(st *taskmodel.State)

	randStates []simtime.RandState
}

// At reports the simulation instant the checkpoint was taken at.
func (cp *Checkpoint) At() simtime.Time { return cp.eng.Now() }

// System returns the captured session's (immutable, shared) task system.
func (cp *Checkpoint) System() *taskmodel.System { return cp.sys }

// PendingEvents reports how many engine events the checkpoint holds queued.
func (cp *Checkpoint) PendingEvents() int { return cp.eng.Pending() }

// captureFrom overwrites cp with a deep copy of s's complete live state,
// recycling cp's backing storage.
func (cp *Checkpoint) captureFrom(s *Session) error {
	cp.sys = s.sys
	cp.mwCfg = s.mwCfg
	if err := cp.eng.CaptureFrom(s.eng, s.encodeFn); err != nil {
		return err
	}
	cp.sch.CaptureFrom(s.sch)
	cp.state = s.state.CloneInto(cp.state)
	cp.rec = s.rec.CloneInto(cp.rec)
	cp.hasInner = false
	if c, ok := s.mw.inner.(*eucon.Controller); ok {
		cp.hasInner = true
		cp.inner.CaptureFrom(c)
	}
	cp.hasOuter = s.mw.outer != nil
	if cp.hasOuter {
		cp.outer.CaptureFrom(s.mw.outer)
	}
	cp.mwInnerCount = s.mw.innerCount
	cp.mwStarted = s.mw.started
	cp.mwLastCounters = append(cp.mwLastCounters[:0], s.mw.lastCounters...)
	cp.events = cp.events[:0]
	for i := range s.eventArgs {
		cp.events = append(cp.events, s.eventArgs[i].do)
	}
	cp.resumeEvents = cp.resumeEvents[:0]
	for i := range s.resumeArgs {
		cp.resumeEvents = append(cp.resumeEvents, s.resumeArgs[i].do)
	}
	cp.randStates = cp.randStates[:0]
	for _, r := range s.rands {
		cp.randStates = append(cp.randStates, r.State())
	}
	return nil
}

// Snapshot captures the session's complete live state as a new caller-owned
// Checkpoint. The canonical use is mid-run, after RunPartial: the
// checkpoint then seeds any number of divergent continuations (Restore +
// Resume, or RunTree for whole campaigns), each reproducing the captured
// run byte for byte without replaying its prefix.
//
// Snapshot fails if the engine holds events it cannot rebind — closures
// scheduled by Attach hooks or engine tickers; runs meant to be forked must
// keep their scripted behavior in RunConfig.Events. The session itself is
// never modified.
func (s *Session) Snapshot() (*Checkpoint, error) {
	return s.SnapshotInto(nil)
}

// SnapshotInto is Snapshot with a recycled destination: a campaign loop
// that rotates retired checkpoints back in pays the deep copy's memory cost
// once, not once per snapshot. A nil cp allocates a fresh checkpoint. cp
// must be caller-owned — never one another goroutine is restoring from.
func (s *Session) SnapshotInto(cp *Checkpoint) (*Checkpoint, error) {
	if !s.built {
		return nil, fmt.Errorf("core: Snapshot of an empty session; run something first")
	}
	if err := s.mw.Err(); err != nil {
		return nil, fmt.Errorf("core: Snapshot of a failed run: %w", err)
	}
	if cp == nil {
		cp = &Checkpoint{}
	}
	if err := cp.captureFrom(s); err != nil {
		return nil, err
	}
	return cp, nil
}

// Restore rebinds the session to the checkpointed instant: after it
// returns, the session is live mid-run exactly as the captured one was,
// and Resume continues it. The checkpoint is only read — many sessions may
// restore from the same checkpoint concurrently, which is what RunTree's
// workers do.
//
// A session whose shape (System pointer + middleware config) already
// matches the checkpoint restores allocation-free at steady state; any
// other session — including an empty one — is rebuilt first. Restore
// replaces whatever run the session previously held.
func (s *Session) Restore(cp *Checkpoint) error {
	if cp == nil || cp.sys == nil {
		return fmt.Errorf("core: Restore from an empty checkpoint")
	}
	if !s.hasShape(cp.sys, cp.mwCfg) {
		// Placeholder execution model: behavioral configuration is not part
		// of a checkpoint; Resume installs the continuation's models before
		// any event fires.
		cfg := RunConfig{System: cp.sys, Exec: exectime.Nominal{}}
		if err := s.rebuild(cfg, cp.mwCfg, sched.Config{Exec: cfg.Exec}); err != nil {
			return err
		}
	}
	// Order matters: the scheduler pools and the scripted-event buffers
	// must exist before the engine restore decodes pending-event arguments
	// against them.
	cp.sch.RestoreTo(s.sch)
	s.eventArgs = s.eventArgs[:0]
	for i, do := range cp.events {
		s.eventArgs = append(s.eventArgs, sessionEvent{st: s.state, do: do, idx: int32(i)})
	}
	s.resumeArgs = s.resumeArgs[:0]
	for i, do := range cp.resumeEvents {
		s.resumeArgs = append(s.resumeArgs, sessionEvent{st: s.state, do: do, idx: int32(i), resume: true})
	}
	cp.eng.RestoreTo(s.eng, s.decodeFn)
	// In-place by construction: s.state shares cp.sys after the shape
	// check above, so CloneInto never reallocates and the pointers held by
	// the scheduler and middleware stay valid. Same for the recorder and
	// the middleware's interned series handles.
	s.state = cp.state.CloneInto(s.state)
	s.rec = cp.rec.CloneInto(s.rec)
	if cp.hasInner {
		cp.inner.RestoreTo(s.mw.inner.(*eucon.Controller))
	} else if s.mw.inner != nil {
		// The decentralized inner controller carries no cross-period state;
		// Reset is a full restore.
		s.mw.inner.Reset()
	}
	if cp.hasOuter {
		cp.outer.RestoreTo(s.mw.outer)
	}
	s.mw.innerCount = cp.mwInnerCount
	s.mw.started = cp.mwStarted
	s.mw.lastCounters = append(s.mw.lastCounters[:0], cp.mwLastCounters...)
	s.mw.onInner = nil
	s.mw.err = nil
	// The continuation's random streams (collected by the next Resume) are
	// rewound to the captured states, reproducing the replayed run's exact
	// sample sequences.
	s.rands = s.rands[:0]
	s.randStates = append(s.randStates[:0], cp.randStates...)
	return nil
}
