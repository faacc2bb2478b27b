package core

import (
	"errors"
	"fmt"

	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
)

// Fork is one branch of a branching campaign: a continuation that diverges
// from the shared prefix at the fork instant.
type Fork struct {
	// Mutate, if set, is applied to the operating point at the fork
	// instant, as if it were a scenario event scheduled there — a rate-floor
	// drop, a precision shed, the icy-road trigger.
	Mutate func(st *taskmodel.State)
	// Events are additional scripted actions for this branch; each must
	// fire at or after the fork instant.
	Events []Event
}

// TreeConfig describes a branching campaign: one shared prefix, N divergent
// continuations.
type TreeConfig struct {
	// Base builds the campaign's run configuration. It is called once for
	// the shared prefix and once per fork, so that stateful models (seeded
	// Noise streams, CAN jitter buses) are freshly constructed per worker
	// run — Resume rewinds each fresh stack to the prefix's stream
	// states, giving every branch the prefix's exact history. Base must
	// return an equivalent config each call: same System pointer, same
	// middleware config, same model stack shape, same Events. Attach is not
	// supported (its events cannot be copied); keep scripted
	// behavior in Events.
	Base func() RunConfig
	// ForkAt is the divergence instant, in (0, Duration).
	ForkAt simtime.Time
	// Forks are the branches; one result is produced per fork, in order.
	Forks []Fork
	// Workers bounds the worker pool: <= 0 means parallel.Workers(),
	// 1 runs serially. Results are identical for every worker count.
	Workers int
}

// RunTree executes a branching campaign: the shared prefix runs once to
// ForkAt on a session of its own, and every fork continues, in parallel,
// on a worker session copied straight from it — the prefix is never
// replayed and no Checkpoint is taken. Each fork's result is
// byte-identical (traces, counters, final state) to a fresh full run whose
// scenario appends that fork's mutation and events to the base config's;
// the fork golden and fuzz tests pin this. Results are returned in fork
// order, deep-copied and caller-owned.
//
// On failure RunTree reports every failing fork (joined in fork order)
// along with the result slice — successful forks keep their results,
// failed entries are nil. A prefix failure fails the whole campaign.
func RunTree(tc TreeConfig) ([]*RunResult, error) {
	return RunTreeInto(tc, nil)
}

// RunTreeInto is RunTree with recycled result slots: recycle's entries are
// the CloneInto destinations of the fork results, index for index, so a
// campaign loop that feeds each call's results into the next pays the
// retention deep copy's allocations once. recycle may be nil, shorter
// than Forks, or hold nil entries; its entries must be caller-owned
// results the caller is done reading.
func RunTreeInto(tc TreeConfig, recycle []*RunResult) ([]*RunResult, error) {
	if tc.Base == nil {
		return nil, fmt.Errorf("core: TreeConfig.Base is required")
	}
	if len(tc.Forks) == 0 {
		return nil, fmt.Errorf("core: TreeConfig.Forks is empty")
	}
	base := tc.Base()
	if tc.ForkAt <= 0 || tc.ForkAt >= simtime.Time(base.Duration) {
		return nil, fmt.Errorf("core: TreeConfig.ForkAt = %v outside (0, %v)", tc.ForkAt, base.Duration)
	}
	for fi, f := range tc.Forks {
		for _, ev := range f.Events {
			if ev.Do == nil {
				return nil, fmt.Errorf("core: fork %d event at %v has nil action", fi, ev.At)
			}
			if ev.At < tc.ForkAt {
				return nil, fmt.Errorf("core: fork %d event at %v precedes the fork instant %v", fi, ev.At, tc.ForkAt)
			}
		}
	}
	workers := tc.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	if workers > len(tc.Forks) {
		workers = len(tc.Forks)
	}

	// One session per Stream slot, so each in-flight fork owns its slot's
	// session until its ordered emit and results survive out-of-order
	// completion without cloning, plus one for the shared prefix.
	sessions := make([]*Session, parallel.Slots(workers)+1)
	checkoutSessions(sessions)
	completed := false
	defer func() {
		// A panic can leave a session mid-run with its substrate invariants
		// broken; only a drained campaign returns its sessions to the pool.
		if completed {
			returnSessions(sessions)
		}
	}()
	for i, s := range sessions {
		if s == nil {
			sessions[i] = NewSession()
		}
	}
	prefix := sessions[len(sessions)-1]

	// Shared prefix: run to the fork instant once. A failed prefix leaves
	// the session consistent (its next run resets every component), so the
	// pool still gets the sessions back. Every fork copies this session;
	// the first copy is taken here, so a prefix holding an event no copy
	// can rebind (an Attach ticker) fails the campaign once, as a prefix
	// error.
	if err := prefix.RunPartial(base, tc.ForkAt); err != nil {
		completed = true
		return nil, fmt.Errorf("core: prefix: %w", err)
	}
	if err := sessions[0].copyFrom(prefix); err != nil {
		completed = true
		return nil, fmt.Errorf("core: prefix: %w", err)
	}

	results := make([]*RunResult, len(tc.Forks))
	errs := make([]error, 0)
	fi := 0
	next := func() (int, bool) {
		if fi >= len(tc.Forks) {
			return 0, false
		}
		i := fi
		fi++
		return i, true
	}
	type outcome struct {
		res *RunResult
		err error
	}
	parallel.Stream(next, workers,
		func(slot, _ int, i int) outcome {
			// The prefix session is only read while forks copy from it.
			s := sessions[slot]
			if err := s.copyFrom(prefix); err != nil {
				return outcome{nil, err}
			}
			fork := tc.Forks[i]
			cfgW := tc.Base()
			// The copied session is pinned to the prefix's System
			// pointer; Base may legitimately construct config scaffolding
			// afresh, so the worker config's System is dropped rather than
			// compared (the scheduler passes its own system to the models,
			// which therefore never observe Base's copy).
			cfgW.System = nil
			events := make([]Event, 0, 1+len(fork.Events))
			if fork.Mutate != nil {
				events = append(events, Event{At: tc.ForkAt, Do: fork.Mutate})
			}
			events = append(events, fork.Events...)
			cfgW.Events = events
			res, err := s.Resume(cfgW)
			return outcome{res, err}
		},
		func(i int, o outcome) {
			if o.err != nil {
				errs = append(errs, fmt.Errorf("core: fork %d: %w", i, o.err))
				return
			}
			var dst *RunResult
			if i < len(recycle) {
				dst = recycle[i]
			}
			results[i] = o.res.CloneInto(dst)
		})
	completed = true
	return results, errors.Join(errs...)
}
