package core

import (
	"fmt"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
)

// copyFrom overwrites s with a deep copy of src's live mid-run state: the
// engine's pending events and clock, the scheduler's pools and counters,
// the operating point, the recorded traces, both controllers' cross-period
// state, the middleware bookkeeping, the scripted-event buffers and the
// states of every registered random stream. A session of another shape,
// or an empty one, is rebuilt to src's shape first; a same-shaped copy
// allocates nothing at steady state. src is only read, so many sessions
// may copy from one source concurrently.
//
// The copy fails if src's engine holds an event it cannot rebind: a
// closure or an Attach-installed ticker. s is then left unbuilt, so its
// next run rebuilds it.
func (s *Session) copyFrom(src *Session) error {
	if !s.hasShape(src.sys, src.mwCfg) {
		// Placeholder execution model: behavior is not part of a run's
		// state; Resume installs the continuation's models before any
		// event fires.
		cfg := RunConfig{System: src.sys, Exec: exectime.Nominal{}}
		if err := s.rebuild(cfg, src.mwCfg, sched.Config{Exec: cfg.Exec}); err != nil {
			return err
		}
	}
	// Order matters: the scheduler pools and the scripted-event buffers
	// must be in place before the engine copy rebinds pending events into
	// them.
	s.sch.CopyFrom(src.sch)
	s.eventArgs = s.copyEvents(s.eventArgs, src.eventArgs)
	s.resumeArgs = s.copyEvents(s.resumeArgs, src.resumeArgs)
	if err := s.eng.CopyFrom(src.eng, s.rebindArg); err != nil {
		s.built = false
		return err
	}
	// In place by construction: both sessions share src.sys after the
	// shape check, so CloneInto never reallocates, and the pointers the
	// scheduler and middleware hold stay valid. Same for the recorder and
	// the middleware's interned series handles.
	s.state = src.state.CloneInto(s.state)
	s.rec = src.rec.CloneInto(s.rec)
	s.mw.copyFrom(src.mw)
	// The continuation's streams, collected by the next Resume, are
	// rewound to src's current states: its live streams after a
	// RunPartial, or the states it was itself copied with.
	s.rands = s.rands[:0]
	s.randStates = append(s.randStates[:0], src.randStates...)
	for _, r := range src.rands {
		s.randStates = append(s.randStates, r.State())
	}
	return nil
}

// copyEvents rewrites dst as src's scripted events bound to s's state.
func (s *Session) copyEvents(dst, src []sessionEvent) []sessionEvent {
	dst = dst[:0]
	for _, ev := range src {
		ev.st = s.state
		dst = append(dst, ev)
	}
	return dst
}

// rebindArg maps a pending event's argument in the session s is copied
// from to s's counterpart: a scripted event to the entry at the same index
// of s's buffer, the middleware tick to s's middleware, and everything
// else to the scheduler. An argument neither layer owns fails the copy.
func (s *Session) rebindArg(arg any) (any, error) {
	switch v := arg.(type) {
	case *sessionEvent:
		if v.resume {
			return &s.resumeArgs[v.idx], nil
		}
		return &s.eventArgs[v.idx], nil
	case *Middleware:
		return s.mw, nil
	}
	if a, ok := s.sch.RebindArg(arg); ok {
		return a, nil
	}
	return nil, fmt.Errorf("core: %w (argument type %T)", sched.ErrUnknownEventArg, arg)
}

// Checkpoint is a frozen Session: a complete copy of a live mid-run
// session that nothing runs, only copies from. The immutable
// *taskmodel.System and the scripted-event funcs are shared with the
// captured session by design; everything else is the checkpoint's own, so
// it may be restored into any Session, including concurrently into many
// worker sessions, since Restore only reads it. The checkpoint returned by
// Snapshot is caller-owned; the capturing session never writes to it
// again.
//
// The zero Checkpoint is empty and only useful as a SnapshotInto
// destination.
type Checkpoint struct {
	s Session
}

// At reports the simulation instant the checkpoint was taken at.
func (cp *Checkpoint) At() simtime.Time {
	if !cp.s.built {
		return 0
	}
	return cp.s.eng.Now()
}

// System returns the captured session's (immutable, shared) task system.
func (cp *Checkpoint) System() *taskmodel.System { return cp.s.sys }

// PendingEvents reports how many engine events the checkpoint holds queued.
func (cp *Checkpoint) PendingEvents() int {
	if !cp.s.built {
		return 0
	}
	return cp.s.eng.Pending()
}

// Snapshot captures the session's complete live state as a new caller-owned
// Checkpoint. The canonical use is mid-run, after RunPartial: the
// checkpoint then seeds any number of divergent continuations (Restore +
// Resume), each reproducing the captured run byte for byte without
// replaying its prefix. RunTree forks copy from the live prefix session
// directly and take no snapshot.
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
// On error cp is left empty.
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
	if err := cp.s.copyFrom(s); err != nil {
		return nil, err
	}
	return cp, nil
}

// Restore rebinds the session to the checkpointed instant: after it
// returns, the session is live mid-run exactly as the captured one was,
// and Resume continues it. The checkpoint is only read — many sessions may
// restore from the same checkpoint concurrently.
//
// A session whose shape (System pointer + middleware config) already
// matches the checkpoint restores allocation-free at steady state; any
// other session — including an empty one — is rebuilt first. Restore
// replaces whatever run the session previously held.
func (s *Session) Restore(cp *Checkpoint) error {
	if cp == nil || !cp.s.built {
		return fmt.Errorf("core: Restore from an empty checkpoint")
	}
	return s.copyFrom(&cp.s)
}
