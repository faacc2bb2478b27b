package sched

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// mustSystem validates sys or fails the test.
func mustSystem(t *testing.T, sys *taskmodel.System) *taskmodel.System {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// singleTask builds a 1-ECU system with one single-subtask task.
func singleTask(t *testing.T, execMs float64, rate units.Rate) *taskmodel.System {
	t.Helper()
	return mustSystem(t, &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{1},
		Tasks: []*taskmodel.Task{{
			Name: "t1",
			Subtasks: []taskmodel.Subtask{
				{Name: "s", ECU: 0, NominalExec: simtime.FromMillis(execMs), MinRatio: 1, Weight: 1},
			},
			RateMin: rate, RateMax: rate,
		}},
	})
}

func TestPeriodicCompletion(t *testing.T) {
	sys := singleTask(t, 10, 10) // 10ms every 100ms: trivially feasible
	eng := simtime.NewEngine()
	var completions []simtime.Time
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.Nominal{},
		OnChain: func(ev ChainEvent) {
			if ev.Missed {
				t.Errorf("unexpected miss at %v", ev.Deadline)
			}
			completions = append(completions, ev.Completed)
		},
	})
	s.Start()
	eng.Run(simtime.At(1) - 1) // stop just before the release at t=1s
	c := s.counters[0]
	if c.Released != 10 || c.Completed != 10 || c.Missed != 0 {
		t.Fatalf("counters = %+v, want 10/10/0", c)
	}
	for i, done := range completions {
		want := simtime.At(0.1 * float64(i)).Add(10 * simtime.Millisecond)
		if done != want {
			t.Errorf("completion %d = %v, want %v", i, done, want)
		}
	}
	if got := c.MissRatio(); got != 0 {
		t.Errorf("MissRatio = %v, want 0", got)
	}
}

func TestPreemptionTimeline(t *testing.T) {
	// T1: 10ms @ 50Hz (20ms subdeadline, high priority).
	// T2: 30ms @ 10Hz (100ms subdeadline, low priority).
	// T2's first instance must finish at exactly 60ms:
	// runs 10–20, 30–40, 50–60 with T1 occupying 0–10, 20–30, 40–50.
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{1},
		Tasks: []*taskmodel.Task{
			{
				Name:     "hi",
				Subtasks: []taskmodel.Subtask{{Name: "h", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1}},
				RateMin:  50, RateMax: 50,
			},
			{
				Name:     "lo",
				Subtasks: []taskmodel.Subtask{{Name: "l", ECU: 0, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1}},
				RateMin:  10, RateMax: 10,
			},
		},
	})
	eng := simtime.NewEngine()
	var loDone, hiFirst simtime.Time
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.Nominal{},
		OnChain: func(ev ChainEvent) {
			if ev.Missed {
				t.Errorf("unexpected miss: %+v", ev)
			}
			if ev.Task == 1 && ev.Instance == 0 {
				loDone = ev.Completed
			}
			if ev.Task == 0 && ev.Instance == 0 {
				hiFirst = ev.Completed
			}
		},
	})
	s.Start()
	eng.Run(simtime.At(0.099))
	if hiFirst != simtime.Time(10*simtime.Millisecond) {
		t.Errorf("high-priority first completion = %v, want 10ms", hiFirst)
	}
	if loDone != simtime.Time(60*simtime.Millisecond) {
		t.Errorf("low-priority completion = %v, want 60ms (three preemptions)", loDone)
	}
}

func TestOverloadMissesAndAborts(t *testing.T) {
	// 30ms of demand every 20ms: every instance aborts at its deadline.
	sys := singleTask(t, 30, 50)
	eng := simtime.NewEngine()
	missed := 0
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.Nominal{},
		OnChain: func(ev ChainEvent) {
			if !ev.Missed {
				t.Errorf("instance completed under permanent overload: %+v", ev)
			}
			missed++
		},
	})
	s.Start()
	eng.Run(simtime.At(1) - 1)
	c := s.counters[0]
	if c.Missed == 0 || c.Completed != 0 {
		t.Fatalf("counters = %+v, want all missed", c)
	}
	if got := c.MissRatio(); got != 1 {
		t.Errorf("MissRatio = %v, want 1", got)
	}
	if missed != int(c.Missed) {
		t.Errorf("OnChain missed count %d != counter %d", missed, c.Missed)
	}
	// The CPU never idles under overload: utilization saturates at 1.
	u := s.SampleUtilizationsInto(nil)
	if u[0] < 0.999 {
		t.Errorf("overloaded utilization = %v, want ~1", u[0])
	}
}

func TestUtilizationMonitor(t *testing.T) {
	// 10ms @ 50Hz + 30ms @ 10Hz = 0.5 + 0.3 = 0.8 utilization.
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{1},
		Tasks: []*taskmodel.Task{
			{
				Name:     "a",
				Subtasks: []taskmodel.Subtask{{Name: "a", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1}},
				RateMin:  50, RateMax: 50,
			},
			{
				Name:     "b",
				Subtasks: []taskmodel.Subtask{{Name: "b", ECU: 0, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1}},
				RateMin:  10, RateMax: 10,
			},
		},
	})
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{Exec: exectime.Nominal{}})
	s.Start()
	eng.Run(simtime.At(1))
	u := s.SampleUtilizationsInto(nil)
	if math.Abs(u[0].Float()-0.8) > 0.01 {
		t.Errorf("u = %v, want ~0.8", u[0])
	}
	// Second window must account only its own interval.
	eng.Run(simtime.At(2))
	u = s.SampleUtilizationsInto(nil)
	if math.Abs(u[0].Float()-0.8) > 0.01 {
		t.Errorf("second window u = %v, want ~0.8", u[0])
	}
}

func TestUtilizationPartialRunningJobCharged(t *testing.T) {
	// One 600ms job per second; sampling at 0.5s catches it mid-run.
	sys := singleTask(t, 600, 1)
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{Exec: exectime.Nominal{}})
	s.Start()
	eng.Run(simtime.At(0.5))
	u := s.SampleUtilizationsInto(nil)
	if math.Abs(u[0].Float()-1.0) > 1e-9 {
		t.Errorf("first half window u = %v, want 1.0", u[0])
	}
	eng.Run(simtime.At(1) - 1)
	u = s.SampleUtilizationsInto(nil)
	// 100ms of remaining work in a ~500ms window.
	if math.Abs(u[0].Float()-0.2) > 0.01 {
		t.Errorf("second half window u = %v, want ~0.2", u[0])
	}
}

func TestChainAcrossECUs(t *testing.T) {
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
	eng := simtime.NewEngine()
	var first simtime.Time
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.Nominal{},
		OnChain: func(ev ChainEvent) {
			if ev.Instance == 0 {
				first = ev.Completed
			}
		},
	})
	s.Start()
	eng.Run(simtime.At(0.099))
	if first != simtime.Time(25*simtime.Millisecond) {
		t.Errorf("chain completion = %v, want 25ms (15 + 10)", first)
	}
}

func TestReleaseGuardSeparation(t *testing.T) {
	// Stage 1 takes 15ms for the first instance, then drops to 5ms. The
	// release guard must delay the second stage-2 release to lastRelease +
	// period even though its predecessor finished earlier.
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
	eng := simtime.NewEngine()
	var completions []simtime.Time
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec:    script,
		OnChain: func(ev ChainEvent) { completions = append(completions, ev.Completed) },
	})
	s.Start()
	eng.Run(simtime.At(0.199))
	if len(completions) != 2 {
		t.Fatalf("completions = %v, want 2", completions)
	}
	// Instance 0: s1 0–15ms, s2 released 15ms, done 25ms.
	if completions[0] != simtime.Time(25*simtime.Millisecond) {
		t.Errorf("instance 0 completion = %v, want 25ms", completions[0])
	}
	// Instance 1: s1 100–105ms, but guard holds s2 until 15+100 = 115ms,
	// done 125ms. Without the guard it would complete at 115ms.
	if completions[1] != simtime.Time(125*simtime.Millisecond) {
		t.Errorf("instance 1 completion = %v, want 125ms (release guard)", completions[1])
	}
}

func TestLinkDelay(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{1, 1},
		Tasks: []*taskmodel.Task{{
			Name: "chain",
			Subtasks: []taskmodel.Subtask{
				{Name: "s1", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1},
				{Name: "s2", ECU: 1, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1},
			},
			RateMin: 10, RateMax: 10,
		}},
	})
	eng := simtime.NewEngine()
	var first simtime.Time
	s := New(eng, taskmodel.NewState(sys), Config{
		Exec: exectime.Nominal{},
		LinkDelay: func(from, to int) simtime.Duration {
			if from == 0 && to == 1 {
				return 5 * simtime.Millisecond
			}
			return 0
		},
		OnChain: func(ev ChainEvent) {
			if ev.Instance == 0 {
				first = ev.Completed
			}
		},
	})
	s.Start()
	eng.Run(simtime.At(0.099))
	if first != simtime.Time(25*simtime.Millisecond) {
		t.Errorf("chain completion = %v, want 25ms (10 + 5 bus + 10)", first)
	}
}

func TestRateChangeTakesEffectNextRelease(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{1},
		Tasks: []*taskmodel.Task{{
			Name:     "t",
			Subtasks: []taskmodel.Subtask{{Name: "s", ECU: 0, NominalExec: simtime.Millisecond, MinRatio: 1, Weight: 1}},
			RateMin:  10, RateMax: 40,
		}},
	})
	eng := simtime.NewEngine()
	st := taskmodel.NewState(sys)
	s := New(eng, st, Config{Exec: exectime.Nominal{}})
	s.Start()
	eng.Schedule(simtime.At(0.05), func(simtime.Time) { st.SetRate(0, 20) })
	eng.Run(simtime.At(0.99))
	// Releases: t=0, t=0.1 (old period still in flight), then every 50ms:
	// 0.15, 0.20, ..., 0.95 → 1 + 1 + 17 = 19.
	if got := s.counters[0].Released; got != 19 {
		t.Errorf("Released = %d, want 19", got)
	}
}

func TestRatioReducesDemand(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{1},
		Tasks: []*taskmodel.Task{{
			Name:     "t",
			Subtasks: []taskmodel.Subtask{{Name: "s", ECU: 0, NominalExec: simtime.FromMillis(30), MinRatio: 0.3, Weight: 1}},
			RateMin:  50, RateMax: 50, // 30ms per 20ms period: infeasible at a=1
		}},
	})
	eng := simtime.NewEngine()
	st := taskmodel.NewState(sys)
	st.SetRatio(taskmodel.SubtaskRef{Task: 0, Index: 0}, 0.5) // 15ms per 20ms: feasible
	s := New(eng, st, Config{Exec: exectime.Nominal{}})
	s.Start()
	eng.Run(simtime.At(1) - 1)
	c := s.counters[0]
	if c.Missed != 0 {
		t.Errorf("misses = %d at reduced precision, want 0", c.Missed)
	}
	u := s.SampleUtilizationsInto(nil)
	if math.Abs(u[0].Float()-0.75) > 0.01 {
		t.Errorf("u = %v, want ~0.75", u[0])
	}
}

func TestCounterArithmetic(t *testing.T) {
	a := TaskCounter{Released: 10, Completed: 7, Missed: 2}
	b := TaskCounter{Released: 4, Completed: 3, Missed: 1}
	d := a.Sub(b)
	if d != (TaskCounter{Released: 6, Completed: 4, Missed: 1}) {
		t.Errorf("Sub = %+v", d)
	}
	if got := d.MissRatio(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MissRatio = %v, want 0.2", got)
	}
	if (TaskCounter{}).MissRatio() != 0 {
		t.Error("empty MissRatio should be 0")
	}
}

func TestStartTwicePanics(t *testing.T) {
	sys := singleTask(t, 1, 10)
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{Exec: exectime.Nominal{}})
	s.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	s.Start()
}

func TestNilExecPanics(t *testing.T) {
	sys := singleTask(t, 1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("nil Exec did not panic")
		}
	}()
	New(simtime.NewEngine(), taskmodel.NewState(sys), Config{})
}

// Property: for random feasible and infeasible task sets, the accounting is
// always conserved — Released == Completed + Missed + live (≤ 1 per task) —
// and utilizations stay in [0, 1].
func TestAccountingConservationProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, execsRaw [3]uint8, ratesRaw [3]uint8) bool {
		tasks := make([]*taskmodel.Task, 0, 3)
		for i := 0; i < 3; i++ {
			execMs := 1 + float64(execsRaw[i]%40)
			rate := units.Rate(5 + float64(ratesRaw[i]%45))
			tasks = append(tasks, &taskmodel.Task{
				Name: "t",
				Subtasks: []taskmodel.Subtask{
					{Name: "a", ECU: i % 2, NominalExec: simtime.FromMillis(execMs), MinRatio: 1, Weight: 1},
					{Name: "b", ECU: (i + 1) % 2, NominalExec: simtime.FromMillis(execMs / 2), MinRatio: 1, Weight: 1},
				},
				RateMin: rate, RateMax: rate,
			})
		}
		sys := &taskmodel.System{NumECUs: 2, UtilBound: []units.Util{1, 1}, Tasks: tasks}
		if err := sys.Validate(); err != nil {
			return false
		}
		eng := simtime.NewEngine()
		s := New(eng, taskmodel.NewState(sys), Config{
			Exec: exectime.NewNoise(exectime.Nominal{}, 0.3, seed),
		})
		s.Start()
		eng.Run(simtime.At(3))
		for ti := range tasks {
			c := s.counters[taskmodel.TaskID(ti)]
			// With end-to-end deadlines of n periods, up to n pipelined
			// instances can be live at once.
			live := c.Released - c.Completed - c.Missed
			if live > uint64(len(tasks[ti].Subtasks)) {
				return false
			}
		}
		for _, u := range s.SampleUtilizationsInto(nil) {
			if u < 0 || u > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSingleStageQueuesNoDeadlineEvents pins the folded deadline: a
// single-stage chain's deadline is its task's next release instant, which
// resolves it, so a system of single-stage tasks never queues a deadline
// event. At every step the queue holds at most one release per task, one
// completion per ECU and one sampler tick — even while an overloaded task
// is aborted at every deadline.
func TestSingleStageQueuesNoDeadlineEvents(t *testing.T) {
	sys := mustSystem(t, &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{1, 1},
		Tasks: []*taskmodel.Task{
			{
				Name:     "fast",
				Subtasks: []taskmodel.Subtask{{Name: "f", ECU: 0, NominalExec: simtime.FromMillis(4), MinRatio: 1, Weight: 1}},
				RateMin:  50, RateMax: 50,
			},
			{
				// 30ms of demand every 25ms behind "fast": never finishes.
				Name:     "overload",
				Subtasks: []taskmodel.Subtask{{Name: "o", ECU: 0, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1}},
				RateMin:  40, RateMax: 40,
			},
			{
				Name:     "other",
				Subtasks: []taskmodel.Subtask{{Name: "x", ECU: 1, NominalExec: simtime.FromMillis(7), MinRatio: 1, Weight: 1}},
				RateMin:  30, RateMax: 30,
			},
		},
	})
	eng := simtime.NewEngine()
	s := New(eng, taskmodel.NewState(sys), Config{Exec: exectime.NewNoise(exectime.Nominal{}, 0.3, 5)})
	const samplers = 1
	eng.Every(100*simtime.Millisecond, func(simtime.Time) { s.SampleUtilizationsInto(nil) })
	s.Start()
	limit := len(sys.Tasks) + sys.NumECUs + samplers
	for eng.Now() < simtime.At(5) && eng.Step() {
		if p := eng.Pending(); p > limit {
			t.Fatalf("at %v: %d events pending, want <= %d (tasks + ECUs + samplers)", eng.Now(), p, limit)
		}
	}
	if c := s.counters[1]; c.Missed == 0 || s.counters[0].Completed == 0 {
		t.Fatalf("counters %+v / %+v: want the overloaded task aborted and the fast task completing", c, s.counters[0])
	}
}
