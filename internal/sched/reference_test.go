package sched

import (
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// fuzzSystem builds a randomized 2-ECU system from raw fuzz bytes: three
// tasks of 1, 2 or 3 stages alternating between the ECUs, each with a rate
// range up to three times its floor so mid-run rate changes stay inside it.
// With overload set, a fourth single-stage task demands more than its
// 20 ms period on ECU 0: every instance is aborted at its deadline, and
// while the other tasks run below 50 Hz it starves every stage they place
// on ECU 0.
func fuzzSystem(shapesRaw, execsRaw, ratesRaw [3]uint8, overload bool) *taskmodel.System {
	tasks := make([]*taskmodel.Task, 0, 4)
	for i := 0; i < 3; i++ {
		execMs := 1 + float64(execsRaw[i]%40)
		rate := units.Rate(5 + float64(ratesRaw[i]%45))
		subs := make([]taskmodel.Subtask, 1+int(shapesRaw[i]%3))
		for k := range subs {
			subs[k] = taskmodel.Subtask{Name: "s", ECU: (i + k) % 2, NominalExec: simtime.FromMillis(execMs / float64(k+1)), MinRatio: 1, Weight: 1}
		}
		tasks = append(tasks, &taskmodel.Task{Name: "t", Subtasks: subs, RateMin: rate, RateMax: 3 * rate})
	}
	if overload {
		tasks = append(tasks, &taskmodel.Task{
			Name:     "hog",
			Subtasks: []taskmodel.Subtask{{Name: "h", ECU: 0, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1}},
			RateMin:  50, RateMax: 50,
		})
	}
	sys := &taskmodel.System{NumECUs: 2, UtilBound: []units.Util{1, 1}, Tasks: tasks}
	if err := sys.Validate(); err != nil {
		return nil
	}
	return sys
}

// rateSteps are the instants at which runDriver moves every task's rate,
// chosen off any release grid: up to the ceiling, down part way, then back
// to the floor. Lowering a rate engages the first-stage release guard.
var rateSteps = []struct {
	at     simtime.Time
	factor units.Rate // of RateMin
}{
	{simtime.At(0.7731), 3},
	{simtime.At(1.6187), 1.4},
	{simtime.At(2.3003), 1},
}

// startedDriver is what runDriver drives on either substrate.
type startedDriver interface {
	Driver
	Start()
}

// runDriver drives one scheduler over the workload on its own engine,
// moving rates at rateSteps and sampling utilizations every 200ms, and
// returns the observable trace: utilization samples and final counters
// (chain events are captured by the caller's OnChain).
func runDriver(d startedDriver, eng *simtime.Engine) (utils []units.Util, counters []TaskCounter) {
	st := d.State()
	for _, step := range rateSteps {
		eng.Schedule(step.at, func(simtime.Time) {
			for ti, task := range st.System().Tasks {
				st.SetRate(taskmodel.TaskID(ti), task.RateMin*step.factor)
			}
		})
	}
	eng.Every(200*simtime.Millisecond, func(simtime.Time) {
		utils = append(utils, d.SampleUtilizationsInto(nil)...)
	})
	d.Start()
	eng.Run(simtime.At(3))
	return utils, d.CountersInto(nil)
}

// TestSchedulerMatchesReferenceFuzz is the scheduler-level golden gate:
// the pooled Scheduler and the retained naive Reference, run over
// identical randomized workloads (1- to 3-stage chains, noisy execution
// times, link delays, both sync policies, mid-run rate changes, overloaded
// draws), must produce identical chain-event streams, utilization
// samples, and counters. Chains and jobs are recycled thousands of times
// per run, so any pooling defect — stale field, premature free, aliased
// event, a single-stage deadline resolved out of order — diverges the
// traces. The test also requires that both single-stage and multi-stage
// instances were aborted in some draw, so the abort paths were compared.
func TestSchedulerMatchesReferenceFuzz(t *testing.T) {
	link := func(from, to int) simtime.Duration {
		if from != to {
			return 3 * simtime.Millisecond
		}
		return 0
	}
	var singleMissDraws, multiMissDraws int
	if err := quick.Check(func(seed int64, shapesRaw, execsRaw, ratesRaw [3]uint8, greedy, delay, overload bool) bool {
		sys := fuzzSystem(shapesRaw, execsRaw, ratesRaw, overload)
		if sys == nil {
			return true // invalid draw; nothing to compare
		}
		cfg := Config{Exec: nil, Sync: SyncReleaseGuard}
		if greedy {
			cfg.Sync = SyncGreedy
		}
		if delay {
			cfg.LinkDelay = link
		}

		var pooledEvents, refEvents []ChainEvent
		pooledCfg := cfg
		pooledCfg.Exec = exectime.NewNoise(exectime.Nominal{}, 0.3, seed)
		pooledCfg.OnChain = func(ev ChainEvent) { pooledEvents = append(pooledEvents, ev) }
		refCfg := cfg
		refCfg.Exec = exectime.NewNoise(exectime.Nominal{}, 0.3, seed)
		refCfg.OnChain = func(ev ChainEvent) { refEvents = append(refEvents, ev) }

		pooledEng := simtime.NewEngine()
		refEng := simtime.NewEngine()
		pooledUtils, pooledCounters := runDriver(New(pooledEng, taskmodel.NewState(sys), pooledCfg), pooledEng)
		refUtils, refCounters := runDriver(NewReference(refEng, taskmodel.NewState(sys), refCfg), refEng)

		if len(pooledEvents) != len(refEvents) {
			t.Logf("seed %d: %d pooled events, %d reference events", seed, len(pooledEvents), len(refEvents))
			return false
		}
		for i := range pooledEvents {
			if pooledEvents[i] != refEvents[i] {
				t.Logf("seed %d: event %d diverged:\n  pooled    %+v\n  reference %+v", seed, i, pooledEvents[i], refEvents[i])
				return false
			}
		}
		if len(pooledUtils) != len(refUtils) {
			return false
		}
		for i := range pooledUtils {
			if pooledUtils[i] != refUtils[i] {
				t.Logf("seed %d: utilization sample %d diverged: pooled %v, reference %v", seed, i, pooledUtils[i], refUtils[i])
				return false
			}
		}
		var singleMiss, multiMiss bool
		for i := range pooledCounters {
			if pooledCounters[i] != refCounters[i] {
				t.Logf("seed %d: task %d counters diverged: pooled %+v, reference %+v", seed, i, pooledCounters[i], refCounters[i])
				return false
			}
			if pooledCounters[i].Missed > 0 {
				if len(sys.Tasks[i].Subtasks) == 1 {
					singleMiss = true
				} else {
					multiMiss = true
				}
			}
		}
		if singleMiss {
			singleMissDraws++
		}
		if multiMiss {
			multiMissDraws++
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if singleMissDraws == 0 || multiMissDraws == 0 {
		t.Errorf("draws with single-stage misses: %d, with multi-stage misses: %d; want both > 0 so every abort path is compared", singleMissDraws, multiMissDraws)
	}
}

// TestReferenceBehaves sanity-checks the oracle itself on the trivially
// feasible workload: the Reference must not be a broken mirror that
// vacuously agrees with a broken Scheduler.
func TestReferenceBehaves(t *testing.T) {
	sys := singleTask(t, 10, 10)
	eng := simtime.NewEngine()
	s := NewReference(eng, taskmodel.NewState(sys), Config{Exec: exectime.Nominal{}})
	s.Start()
	eng.Run(simtime.At(1) - 1)
	c := s.counters[0]
	if c.Released != 10 || c.Completed != 10 || c.Missed != 0 {
		t.Fatalf("reference counters = %+v, want 10/10/0", c)
	}
}

// TestSchedulerSteadyStateZeroAlloc is the pooling gate for the whole
// substrate: a warmed-up multi-ECU simulation — chained tasks crossing
// link delays, release guards engaged, plus an overloaded task whose every
// instance is aborted at its deadline — must run arbitrarily long without
// a single heap allocation. Every chain, job, and event slot is recycled.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{1, 1},
		Tasks: []*taskmodel.Task{
			{
				Name: "chain",
				Subtasks: []taskmodel.Subtask{
					{Name: "a", ECU: 0, NominalExec: simtime.FromMillis(5), MinRatio: 1, Weight: 1},
					{Name: "b", ECU: 1, NominalExec: simtime.FromMillis(4), MinRatio: 1, Weight: 1},
				},
				RateMin: 20, RateMax: 20,
			},
			{
				// 30ms of demand every 20ms: every instance aborts at its
				// deadline, exercising the chainDeadline free path.
				Name:     "overload",
				Subtasks: []taskmodel.Subtask{{Name: "o", ECU: 1, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1}},
				RateMin:  50, RateMax: 50,
			},
		},
	})
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.Nominal{},
		LinkDelay: func(from, to int) simtime.Duration {
			if from != to {
				return 2 * simtime.Millisecond
			}
			return 0
		},
	})
	s.Start()
	eng.Run(simtime.At(2)) // warm pools, arena, and ready heaps
	utilsBuf := make([]units.Util, 0, sys.NumECUs)
	countersBuf := make([]TaskCounter, 0, len(sys.Tasks))
	allocs := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now().Add(100 * simtime.Millisecond))
		utilsBuf = s.SampleUtilizationsInto(utilsBuf)
		countersBuf = s.CountersInto(countersBuf)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduler window allocates %v times, want 0", allocs)
	}
	c := s.counters[1]
	if c.Missed == 0 {
		t.Fatal("overloaded task never missed: the abort path was not exercised")
	}
}
