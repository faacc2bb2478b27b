package eucon

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// makeSystem builds a 2-ECU, 2-task system with generous rate ranges.
func makeSystem(t *testing.T) *taskmodel.System {
	t.Helper()
	sys := &taskmodel.System{
		NumECUs:   2,
		UtilBound: []units.Util{0.7, 0.7},
		Tasks: []*taskmodel.Task{
			{
				Name: "chain",
				Subtasks: []taskmodel.Subtask{
					{Name: "c1", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 0.3, Weight: 2},
					{Name: "c2", ECU: 1, NominalExec: simtime.FromMillis(6), MinRatio: 1, Weight: 1},
				},
				RateMin: 2, RateMax: 100, InitRate: 10,
			},
			{
				Name: "local",
				Subtasks: []taskmodel.Subtask{
					{Name: "l1", ECU: 1, NominalExec: simtime.FromMillis(8), MinRatio: 0.5, Weight: 1},
				},
				RateMin: 2, RateMax: 80, InitRate: 10,
			},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runClosedLoop iterates the analytic closed loop u(k) = gain·û(k) for the
// given number of periods, where û is the model-estimated utilization. This
// tests the controller against Equation (4) without scheduler noise.
func runClosedLoop(t *testing.T, ctl *Controller, st *taskmodel.State, gain float64, periods int) []units.Util {
	t.Helper()
	var utils []units.Util
	for k := 0; k < periods; k++ {
		utils = st.EstimatedUtilizations()
		for j := range utils {
			utils[j] = utils[j].Scale(gain)
		}
		if _, err := ctl.Step(utils); err != nil {
			t.Fatal(err)
		}
	}
	utils = st.EstimatedUtilizations()
	for j := range utils {
		utils[j] = utils[j].Scale(gain)
	}
	return utils
}

func TestConvergesToBound(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	utils := runClosedLoop(t, ctl, st, 1.0, 40)
	for j, u := range utils {
		if math.Abs((u - sys.UtilBound[j]).Float()) > 0.02 {
			t.Errorf("u[%d] = %v, want ~%v", j, u, sys.UtilBound[j])
		}
	}
}

func TestConvergesFromAbove(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	st.SetRate(0, 50)
	st.SetRate(1, 60) // massively over-utilized start
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	utils := runClosedLoop(t, ctl, st, 1.0, 40)
	for j, u := range utils {
		if math.Abs((u - sys.UtilBound[j]).Float()) > 0.02 {
			t.Errorf("u[%d] = %v, want ~%v", j, u, sys.UtilBound[j])
		}
	}
}

func TestRateSaturationReported(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	// Push the floors so high that the bounds are unreachable: at the
	// floor rates utilization already exceeds the bound.
	st.SetRateFloor(0, 60) // chain: 0.010·60 = 0.6 on ECU0 alone... plus bound 0.7 reachable
	st.SetRateFloor(1, 80) // ECU1: 0.006·60 + 0.008·80 = 1.0 > 0.7
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for k := 0; k < 30; k++ {
		utils := st.EstimatedUtilizations()
		res, err = ctl.Step(utils)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !res.Saturated[0] || !res.Saturated[1] {
		t.Errorf("Saturated = %v, want both tasks pinned at floors", res.Saturated)
	}
	if st.Rate(0) != 60 || st.Rate(1) != 80 {
		t.Errorf("rates = %v, %v, want pinned at 60, 80", st.Rate(0), st.Rate(1))
	}
	// And the utilization stays above the bound: the inner loop alone
	// cannot fix this (the paper's motivation for the outer loop).
	if u := st.EstimatedUtilization(1); u <= sys.UtilBound[1] {
		t.Errorf("u1 = %v, expected to stay above bound %v", u, sys.UtilBound[1])
	}
}

func TestRatesAlwaysInBox(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	ctl, err := New(st, Config{RefDecay: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		utils := st.EstimatedUtilizations()
		res, err := ctl.Step(utils)
		if err != nil {
			t.Fatal(err)
		}
		for ti, r := range res.Rates {
			if r < st.RateFloor(taskmodel.TaskID(ti))-1e-9 || r > sys.Tasks[ti].RateMax+1e-9 {
				t.Fatalf("period %d: rate[%d] = %v outside box", k, ti, r)
			}
		}
	}
}

func TestGainRobustnessProperty(t *testing.T) {
	// The closed loop must converge for execution-time uncertainty
	// g ∈ (0, 2) — the stability range of Section IV.C.2.
	if err := quick.Check(func(gRaw uint8) bool {
		// Gains below ~0.7 would need rates beyond RateMax to reach
		// the bound (the box, not the loop, binds); stay in [0.75, 1.8].
		g := 0.75 + 1.05*float64(gRaw)/255
		sys := makeSystem(t)
		st := taskmodel.NewState(sys)
		ctl, err := New(st, Config{})
		if err != nil {
			return false
		}
		utils := runClosedLoop(t, ctl, st, g, 60)
		for j, u := range utils {
			if math.Abs((u - sys.UtilBound[j]).Float()) > 0.05 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPrecisionChangeShiftsOperatingPoint(t *testing.T) {
	// After the outer loop halves a subtask's ratio, the inner loop must
	// re-converge to the bound with higher rates.
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	runClosedLoop(t, ctl, st, 1.0, 40)
	r0Before := st.Rate(0)
	st.SetRatio(taskmodel.SubtaskRef{Task: 0, Index: 0}, 0.8)
	utils := runClosedLoop(t, ctl, st, 1.0, 40)
	for j, u := range utils {
		if math.Abs((u - sys.UtilBound[j]).Float()) > 0.02 {
			t.Errorf("u[%d] = %v after ratio change, want ~%v", j, u, sys.UtilBound[j])
		}
	}
	if st.Rate(0) <= r0Before {
		t.Errorf("rate did not rise after precision drop: %v -> %v", r0Before, st.Rate(0))
	}
}

func TestBoundMargin(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	ctl, err := New(st, Config{BoundMargin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	utils := runClosedLoop(t, ctl, st, 1.0, 40)
	for j, u := range utils {
		if math.Abs((u - (sys.UtilBound[j] - 0.1)).Float()) > 0.02 {
			t.Errorf("u[%d] = %v, want ~%v with margin", j, u, sys.UtilBound[j]-0.1)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	bad := []Config{
		{PredictionHorizon: -1},
		{PredictionHorizon: 2, ControlHorizon: 3},
		{RefDecay: 1.5},
		{ControlPenalty: -1},
		{BoundMargin: -0.1},
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		bad = append(bad,
			Config{RefDecay: x},
			Config{ControlPenalty: x},
			Config{BoundMargin: units.RawUtil(x)},
			Config{OverloadWeight: x},
		)
	}
	for i, cfg := range bad {
		if _, err := New(st, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestStepDimensionMismatch(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step([]units.Util{0.5}); err == nil {
		t.Fatal("wrong utilization vector length accepted")
	}
}

func TestFixedRateTasksDegenerateBox(t *testing.T) {
	// Every task pinned (RateMin == RateMax): the MPC's feasible box is a
	// single point and Step must be a clean no-op on the rates.
	sys := &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{0.9},
		Tasks: []*taskmodel.Task{
			{
				Name:     "fixed",
				Subtasks: []taskmodel.Subtask{{Name: "f", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 1, Weight: 1}},
				RateMin:  20, RateMax: 20,
			},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	st := taskmodel.NewState(sys)
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		res, err := ctl.Step(st.EstimatedUtilizations())
		if err != nil {
			t.Fatal(err)
		}
		if res.Rates[0] != 20 {
			t.Fatalf("rate = %v, want pinned 20", res.Rates[0])
		}
		if !res.Saturated[0] {
			t.Fatal("pinned task not reported saturated")
		}
	}
}
