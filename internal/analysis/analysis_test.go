package analysis

import (
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// single builds a 1-ECU system of independent single-subtask tasks from
// (execMs, rateHz) pairs.
func single(t *testing.T, specs ...[2]float64) *taskmodel.State {
	t.Helper()
	tasks := make([]*taskmodel.Task, 0, len(specs))
	for i, sp := range specs {
		tasks = append(tasks, &taskmodel.Task{
			Name: "t",
			Subtasks: []taskmodel.Subtask{
				{Name: "s", ECU: 0, NominalExec: simtime.FromMillis(sp[0]), MinRatio: 1, Weight: 1},
			},
			RateMin: units.RawRate(sp[1]), RateMax: units.RawRate(sp[1]),
		})
		_ = i
	}
	sys := &taskmodel.System{NumECUs: 1, UtilBound: []units.Util{1}, Tasks: tasks}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return taskmodel.NewState(sys)
}

func TestResponseTimesHandComputed(t *testing.T) {
	// Classic RTA example: C/T = 2/10, 3/15, 5/30 ms.
	// R1 = 2; R2 = 3 + ceil(5/10)·2 = 5; R3 = 5 + ceil(10/10)·2 +
	// ceil(10/15)·3 = 10.
	st := single(t, [2]float64{2, 100}, [2]float64{3, 1000.0 / 15}, [2]float64{5, 1000.0 / 30})
	rep, err := Analyze(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []simtime.Duration{
		simtime.FromMillis(2),
		simtime.FromMillis(5),
		simtime.FromMillis(10),
	}
	for i, w := range want {
		got := rep.Subtasks[i].Response
		// Periods from rates are rounded to microseconds; allow 10 µs.
		diff := got - w
		if diff < 0 {
			diff = -diff
		}
		if diff > 10 {
			t.Errorf("R[%d] = %v, want %v", i, got, w)
		}
		if !rep.Subtasks[i].Schedulable {
			t.Errorf("subtask %d reported unschedulable", i)
		}
	}
	if !rep.Schedulable {
		t.Error("system reported unschedulable")
	}
}

func TestUnschedulableDetected(t *testing.T) {
	// 6 ms @ 100 Hz + 5 ms @ ~83 Hz: the second task's fixed point blows
	// past its 12 ms period.
	st := single(t, [2]float64{6, 100}, [2]float64{5, 1000.0 / 12})
	rep, err := Analyze(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Subtasks[0].Schedulable != true {
		t.Error("high-priority task must be schedulable")
	}
	if rep.Subtasks[1].Schedulable {
		t.Error("overloaded low-priority task reported schedulable")
	}
	if rep.Subtasks[1].Response != simtime.Unbounded {
		t.Errorf("Response = %v, want Never", rep.Subtasks[1].Response)
	}
	if rep.Schedulable {
		t.Error("system reported schedulable")
	}
}

func TestEqualPeriodTiesInterfereBothWays(t *testing.T) {
	// Two 30 ms tasks at 10 Hz: conservative analysis charges each with
	// the other, R = 60 ms ≤ 100 ms.
	st := single(t, [2]float64{30, 10}, [2]float64{30, 10})
	rep, err := Analyze(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := rep.Subtasks[i].Response; got != simtime.FromMillis(60) {
			t.Errorf("R[%d] = %v, want 60ms (mutual tie interference)", i, got)
		}
	}
}

func TestChainE2ELatencyBound(t *testing.T) {
	// Two-stage chain alone on two ECUs at 10 Hz: E2E = one pipeline
	// period + last stage's response.
	sys := &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{1, 1},
		Tasks: []*taskmodel.Task{{
			Name: "chain",
			Subtasks: []taskmodel.Subtask{
				{Name: "s1", ECU: 0, NominalExec: simtime.FromMillis(20), MinRatio: 1, Weight: 1},
				{Name: "s2", ECU: 1, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1},
			},
			RateMin: 10, RateMax: 10,
		}},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(taskmodel.NewState(sys), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := simtime.FromMillis(130) // 100 (pipeline stage) + 30
	if got := rep.Tasks[0].E2ELatency; got != want {
		t.Errorf("E2E latency = %v, want %v", got, want)
	}
	if rep.Tasks[0].Deadline != simtime.FromMillis(200) {
		t.Errorf("deadline = %v, want 200ms", rep.Tasks[0].Deadline)
	}
	if !rep.Tasks[0].Schedulable {
		t.Error("trivial chain reported unschedulable")
	}
}

func TestGreedyJitterInflatesInterference(t *testing.T) {
	// A chain whose stage 1 has a large response feeding stage 2 on an
	// ECU shared with a victim task: under greedy sync the victim sees
	// jittered interference and its response grows versus the guard.
	build := func() *taskmodel.State {
		sys := &taskmodel.System{
			NumECUs:   2,
			UtilBound: []units.Util{1, 1},
			Tasks: []*taskmodel.Task{
				{
					Name: "chain",
					Subtasks: []taskmodel.Subtask{
						{Name: "s1", ECU: 0, NominalExec: simtime.FromMillis(60), MinRatio: 1, Weight: 1},
						{Name: "s2", ECU: 1, NominalExec: simtime.FromMillis(30), MinRatio: 1, Weight: 1},
					},
					RateMin: 10, RateMax: 10,
				},
				{
					Name: "victim",
					Subtasks: []taskmodel.Subtask{
						{Name: "v", ECU: 1, NominalExec: simtime.FromMillis(40), MinRatio: 1, Weight: 1},
					},
					RateMin: 8, RateMax: 8, // lower priority than s2
				},
			},
		}
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		return taskmodel.NewState(sys)
	}
	guard, err := Analyze(build(), Options{Sync: sched.SyncReleaseGuard})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Analyze(build(), Options{Sync: sched.SyncGreedy})
	if err != nil {
		t.Fatal(err)
	}
	victimGuard := guard.Subtasks[2].Response
	victimGreedy := greedy.Subtasks[2].Response
	if victimGreedy < victimGuard {
		t.Errorf("greedy victim response %v below guarded %v", victimGreedy, victimGuard)
	}
	if greedy.Subtasks[1].Jitter == 0 {
		t.Error("greedy successor has no release jitter")
	}
	if guard.Subtasks[1].Jitter != 0 {
		t.Error("guarded successor carries release jitter")
	}
}

func TestWCETMarginMonotone(t *testing.T) {
	st := taskmodel.NewState(workload.Testbed())
	sched1, err := Analyze(st, Options{WCETMargin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sched1.Schedulable {
		t.Fatal("testbed at floors must be schedulable")
	}
	// Responses grow with the margin.
	sched2, err := Analyze(st, Options{WCETMargin: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sched1.Subtasks {
		if sched2.Subtasks[i].Response != simtime.Unbounded &&
			sched2.Subtasks[i].Response < sched1.Subtasks[i].Response {
			t.Errorf("subtask %d response shrank with larger margin", i)
		}
	}
	if _, err := Analyze(st, Options{WCETMargin: 0.5}); err == nil {
		t.Error("WCETMargin < 1 accepted")
	}
}

func TestMaxWCETMargin(t *testing.T) {
	st := taskmodel.NewState(workload.Testbed())
	margin, err := MaxWCETMargin(st, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if margin <= 1 {
		t.Errorf("margin = %v, want > 1 (floors leave slack)", margin)
	}
	// The found margin is schedulable; slightly above it is not.
	at, err := Analyze(st, Options{WCETMargin: margin})
	if err != nil {
		t.Fatal(err)
	}
	if !at.Schedulable {
		t.Error("reported margin not schedulable")
	}
	above, err := Analyze(st, Options{WCETMargin: margin + 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if above.Schedulable {
		t.Errorf("margin %v + 0.05 still schedulable — search not tight", margin)
	}
	// An unschedulable base returns 0.
	over := taskmodel.NewState(workload.Testbed())
	over.SetRateFloor(workload.TestbedSteerByWire, 100)
	over.SetRateFloor(workload.TestbedSteerCtrl, 30)
	over.SetRateFloor(workload.TestbedSpeedCtrl, 30)
	over.SetRateFloor(workload.TestbedDriveByWire, 100)
	if m, err := MaxWCETMargin(over, 64, 0.01); err != nil || m != 0 {
		t.Errorf("overloaded base margin = %v, %v; want 0", m, err)
	}
}

// TestCertifiedImpliesNoMisses is the cross-validation property: whatever
// the offline analysis certifies schedulable must simulate without a single
// deadline miss under nominal execution times.
func TestCertifiedImpliesNoMisses(t *testing.T) {
	checked := 0
	if err := quick.Check(func(seed int64) bool {
		sys := workload.Synthetic(seed, 3, 6)
		st := taskmodel.NewState(sys)
		rep, err := Analyze(st, Options{})
		if err != nil {
			return false
		}
		if !rep.Schedulable {
			return true // nothing certified, nothing to check
		}
		checked++
		eng := simtime.NewEngine()
		s := sched.New(eng, taskmodel.NewState(sys), sched.Config{Exec: exectime.Nominal{}})
		s.Start()
		eng.Run(simtime.At(20))
		for _, c := range s.CountersInto(nil) {
			if c.Missed > 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no random workload was certified schedulable — property vacuous")
	}
}

// TestLatencyBoundCoversObserved checks the E2E latency bound against the
// simulator's measured chain latencies on the testbed workload.
func TestLatencyBoundCoversObserved(t *testing.T) {
	sys := workload.Testbed()
	st := taskmodel.NewState(sys)
	rep, err := Analyze(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable {
		t.Fatal("testbed at floors must be schedulable")
	}
	observed := make([]simtime.Duration, len(sys.Tasks))
	eng := simtime.NewEngine()
	s := sched.New(eng, taskmodel.NewState(sys), sched.Config{
		Exec: exectime.Nominal{},
		OnChain: func(ev sched.ChainEvent) {
			if ev.Missed {
				t.Errorf("unexpected miss: %+v", ev)
				return
			}
			if lat := ev.Completed.Sub(ev.Release); lat > observed[ev.Task] {
				observed[ev.Task] = lat
			}
		},
	})
	s.Start()
	eng.Run(simtime.At(30))
	for i, tr := range rep.Tasks {
		if observed[i] == 0 {
			t.Errorf("task %d never completed", i)
			continue
		}
		if observed[i] > tr.E2ELatency {
			t.Errorf("task %d observed latency %v exceeds analyzed bound %v",
				i, observed[i], tr.E2ELatency)
		}
	}
}
