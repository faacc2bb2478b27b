package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/precision"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/units"
)

// testSystem: one ECU, two tasks with room to adapt both rate and
// precision.
func testSystem(t *testing.T) *taskmodel.System {
	t.Helper()
	sys := &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{0.7},
		Tasks: []*taskmodel.Task{
			{
				Name:     "adjustable",
				Subtasks: []taskmodel.Subtask{{Name: "a", ECU: 0, NominalExec: simtime.FromMillis(20), MinRatio: 0.3, Weight: 2}},
				RateMin:  5, RateMax: 40,
			},
			{
				Name:     "plain",
				Subtasks: []taskmodel.Subtask{{Name: "p", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1}},
				RateMin:  5, RateMax: 40,
			},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestModeString(t *testing.T) {
	tests := []struct {
		mode Mode
		want string
	}{
		{ModeOpen, "OPEN"},
		{ModeEUCON, "EUCON"},
		{ModeAutoE2E, "AutoE2E"},
		{Mode(99), "Mode(99)"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := testSystem(t)
	cases := []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"no system", RunConfig{Exec: exectime.Nominal{}, Duration: simtime.Second}, "System"},
		{"no exec", RunConfig{System: sys, Duration: simtime.Second}, "Exec"},
		{"no duration", RunConfig{System: sys, Exec: exectime.Nominal{}}, "Duration"},
		{"nil event", RunConfig{
			System: sys, Exec: exectime.Nominal{}, Duration: simtime.Second,
			Events: []Event{{At: 0}},
		}, "nil action"},
		{"bad middleware", RunConfig{
			System: sys, Exec: exectime.Nominal{}, Duration: simtime.Second,
			Middleware: Config{OuterEvery: -1},
		}, "OuterEvery"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestRunRejectsNonFiniteMiddleware: a NaN controller knob is refused
// when the run is assembled, before any simulated event fires — not
// minutes in, at the first solve it poisons.
func TestRunRejectsNonFiniteMiddleware(t *testing.T) {
	fired := false
	_, err := Run(RunConfig{
		System: testSystem(t),
		Exec:   exectime.Nominal{},
		Middleware: Config{
			Mode:      ModeAutoE2E,
			Eucon:     eucon.Config{ControlPenalty: math.NaN()},
			Precision: precision.Config{SaturationThreshold: units.RawUtil(math.NaN())},
		},
		Duration: 10 * simtime.Second,
		Events:   []Event{{At: 0, Do: func(*taskmodel.State) { fired = true }}},
		OnChain:  func(sched.ChainEvent) { fired = true },
	})
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("err = %v, want the NaN knob named", err)
	}
	if fired {
		t.Error("an event ran before the config was rejected")
	}
}

func TestRunEUCONConvergesToBound(t *testing.T) {
	res, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, InnerPeriod: simtime.Second},
		Duration:   60 * simtime.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Trace.Series("util.ecu0")
	if u == nil || u.Len() < 50 {
		t.Fatal("utilization series missing")
	}
	settled := u.Window(40, 60)
	mean := 0.0
	for _, v := range settled {
		mean += v
	}
	mean /= float64(len(settled))
	if math.Abs(mean-0.7) > 0.05 {
		t.Errorf("settled utilization = %v, want ~0.7", mean)
	}
	if res.OverallMissRatio() > 0.01 {
		t.Errorf("miss ratio = %v in a feasible system", res.OverallMissRatio())
	}
}

func TestRunOpenDoesNotAdapt(t *testing.T) {
	res, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   20 * simtime.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rates stay at their initial values throughout.
	r := res.Trace.Series("rate.t1")
	for i, v := range r.Values() {
		if v != 5 {
			t.Fatalf("sample %d: rate = %v, want initial 5 under OPEN", i, v)
		}
	}
}

func TestRunEventsAndSetup(t *testing.T) {
	setupRan := false
	eventRan := simtime.Time(0)
	res, err := Run(RunConfig{
		System: testSystem(t),
		Setup: func(st *taskmodel.State) {
			setupRan = true
			st.SetRate(1, 20)
		},
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   10 * simtime.Second,
		Events: []Event{{
			At: simtime.At(5),
			Do: func(st *taskmodel.State) {
				eventRan = simtime.At(5)
				st.SetRateFloor(0, 30)
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !setupRan {
		t.Error("Setup did not run")
	}
	if eventRan != simtime.At(5) {
		t.Error("event did not run")
	}
	if got := res.State.RateFloor(0); got != 30 {
		t.Errorf("floor = %v, want 30 (event applied)", got)
	}
	if got := res.State.Rate(1); got != 20 {
		t.Errorf("rate.t2 = %v, want 20 (setup applied)", got)
	}
}

func TestRunOnChainAndAttach(t *testing.T) {
	chains := 0
	ticks := 0
	_, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   5 * simtime.Second,
		OnChain:    func(ev sched.ChainEvent) { chains++ },
		Attach: func(eng *simtime.Engine, st *taskmodel.State) {
			var tick simtime.EventFunc
			tick = func(now simtime.Time) {
				ticks++
				eng.After(100*simtime.Millisecond, tick)
			}
			eng.After(100*simtime.Millisecond, tick)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks at 5 Hz for 5 s ≈ 50 chains.
	if chains < 40 {
		t.Errorf("chains = %d, want ~50", chains)
	}
	if ticks < 45 {
		t.Errorf("attach ticks = %d, want ~50", ticks)
	}
}

func TestRunOnInnerTick(t *testing.T) {
	var sawUtils []int
	_, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, InnerPeriod: simtime.Second},
		Duration:   5 * simtime.Second,
		OnInnerTick: func(now simtime.Time, utils []units.Util, st *taskmodel.State) {
			sawUtils = append(sawUtils, len(utils))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sawUtils) != 5 {
		t.Fatalf("inner ticks observed = %d, want 5", len(sawUtils))
	}
	for _, n := range sawUtils {
		if n != 1 {
			t.Errorf("utils length = %d, want 1 ECU", n)
		}
	}
}

func TestMiddlewareRecordsSeries(t *testing.T) {
	res, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second, OuterEvery: 2},
		Duration:   10 * simtime.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"util.ecu0", "rate.t1", "rate.t2",
		"missratio.t1", "missratio.t2", "missratio.overall",
		"precision.total",
	} {
		s := res.Trace.Series(name)
		if s == nil || s.Len() == 0 {
			t.Errorf("series %q missing", name)
		}
	}
}

func TestAutoE2EShedsOnSaturatedSystem(t *testing.T) {
	// Floors high enough that the bound is unreachable at full precision:
	// 0.020·30 + 0.010·20 = 0.8 > 0.7. AutoE2E must shed; EUCON must not.
	events := []Event{{
		At: simtime.At(2),
		Do: func(st *taskmodel.State) {
			st.SetRateFloor(0, 30)
			st.SetRateFloor(1, 20)
		},
	}}
	auto, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second, OuterEvery: 5},
		Duration:   60 * simtime.Second,
		Events:     events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if auto.State.TotalPrecision() >= 3 {
		t.Errorf("AutoE2E precision = %v, want shed below full 3", auto.State.TotalPrecision())
	}
	eucon, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, InnerPeriod: simtime.Second},
		Duration:   60 * simtime.Second,
		Events:     events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eucon.State.TotalPrecision() != 3 {
		t.Errorf("EUCON precision = %v, want untouched 3", eucon.State.TotalPrecision())
	}
}

func TestMiddlewareStartTwicePanics(t *testing.T) {
	sys := testSystem(t)
	eng := simtime.NewEngine()
	s := sched.New(eng, taskmodel.NewState(sys), sched.Config{Exec: exectime.Nominal{}})
	mw, err := NewMiddleware(eng, s, Config{}, trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	mw.Start()
}

func TestResultHelpers(t *testing.T) {
	r := &RunResult{Counters: []sched.TaskCounter{
		{Released: 10, Completed: 8, Missed: 2},
		{Released: 10, Completed: 10, Missed: 0},
	}}
	if got := r.OverallMissRatio(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("OverallMissRatio = %v, want 0.1", got)
	}
	if got := r.MissRatio(0); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MissRatio(0) = %v, want 0.2", got)
	}
	empty := &RunResult{Counters: []sched.TaskCounter{}}
	if empty.OverallMissRatio() != 0 {
		t.Error("empty OverallMissRatio != 0")
	}
}

func TestDecentralizedInnerConverges(t *testing.T) {
	res, err := Run(RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, DecentralizedInner: true, InnerPeriod: simtime.Second},
		Duration:   120 * simtime.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Trace.Series("util.ecu0").Window(100, 120)
	mean := 0.0
	for _, v := range u {
		mean += v
	}
	mean /= float64(len(u))
	// The decentralized min-rule settles at (or conservatively below) the
	// bound without ever missing.
	if mean > 0.7+0.03 || mean < 0.5 {
		t.Errorf("settled utilization = %v, want near 0.7", mean)
	}
	if res.OverallMissRatio() > 0.01 {
		t.Errorf("miss ratio = %v", res.OverallMissRatio())
	}
}

// failingController triggers the middleware's error path on first use.
type failingController struct{}

func (failingController) Step([]units.Util) (eucon.Result, error) {
	return eucon.Result{}, errors.New("injected controller failure")
}

func (failingController) Reset() {}

// TestMiddlewareSurfacesControllerError locks in the hot-path contract the
// panicguard lint analyzer enforces: a controller failure during the run
// must stop the engine and surface through Err(), not panic.
func TestMiddlewareSurfacesControllerError(t *testing.T) {
	sys := testSystem(t)
	eng := simtime.NewEngine()
	state := taskmodel.NewState(sys)
	scheduler := sched.New(eng, state, sched.Config{Exec: exectime.Nominal{}})
	mw, err := NewMiddleware(eng, scheduler, Config{Mode: ModeEUCON}, trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	mw.inner = failingController{}
	scheduler.Start()
	mw.Start()
	eng.Run(simtime.At(10))

	if mw.Err() == nil {
		t.Fatal("Err() = nil after injected controller failure")
	}
	if !strings.Contains(mw.Err().Error(), "injected controller failure") {
		t.Errorf("Err() = %v, want the injected cause preserved", mw.Err())
	}
	if got := eng.Now(); got > simtime.At(2) {
		t.Errorf("engine ran to %v after failure at the first inner tick; want an early stop", got)
	}
}

// TestRunAllMatchesSerialRuns pins RunAll's determinism contract: the
// parallel harness produces exactly the per-run results that serial Run
// calls do, in input order, for any worker count.
func TestRunAllMatchesSerialRuns(t *testing.T) {
	mkCfgs := func() []RunConfig {
		var cfgs []RunConfig
		for _, mode := range []Mode{ModeOpen, ModeEUCON, ModeAutoE2E} {
			cfgs = append(cfgs, RunConfig{
				System:     testSystem(t),
				Exec:       exectime.Nominal{},
				Middleware: Config{Mode: mode, InnerPeriod: simtime.Second},
				Duration:   20 * simtime.Second,
			})
		}
		return cfgs
	}

	want, err := RunAll(mkCfgs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		got, err := RunAll(mkCfgs(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if g, w := got[i].OverallMissRatio(), want[i].OverallMissRatio(); g != w {
				t.Errorf("workers=%d run %d: miss ratio %v != serial %v", workers, i, g, w)
			}
			gu, wu := got[i].Trace.Series("util.ecu0").Values(), want[i].Trace.Series("util.ecu0").Values()
			if len(gu) != len(wu) {
				t.Fatalf("workers=%d run %d: series length %d != %d", workers, i, len(gu), len(wu))
			}
			for k := range wu {
				if gu[k] != wu[k] {
					t.Fatalf("workers=%d run %d sample %d: %v != %v (bitwise)", workers, i, k, gu[k], wu[k])
				}
			}
		}
	}
}

// TestRunAllFirstErrorByIndex: the reported error is the lowest-indexed
// failure regardless of completion order, and failed entries are nil while
// successes are kept.
func TestRunAllFirstErrorByIndex(t *testing.T) {
	good := RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   2 * simtime.Second,
	}
	bad := good
	bad.Exec = nil // fails validation inside Run
	results, err := RunAll([]RunConfig{good, bad, bad, good}, 4)
	if err == nil {
		t.Fatal("want error from failing run")
	}
	if !strings.Contains(err.Error(), "run 1:") {
		t.Errorf("error %q does not name the lowest failing index", err)
	}
	if results[0] == nil || results[3] == nil {
		t.Error("successful runs lost their results")
	}
	if results[1] != nil || results[2] != nil {
		t.Error("failed runs kept non-nil results")
	}
}
