package eucon

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// runDecentralizedLoop iterates the analytic closed loop (measured =
// gain × estimated) for the decentralized controller.
func runDecentralizedLoop(t *testing.T, ctl *Decentralized, st *taskmodel.State, gain float64, periods int) []units.Util {
	t.Helper()
	var utils []units.Util
	for k := 0; k <= periods; k++ {
		utils = st.EstimatedUtilizations()
		for j := range utils {
			utils[j] = utils[j].Scale(gain)
		}
		if k == periods {
			break
		}
		if _, err := ctl.Step(utils); err != nil {
			t.Fatal(err)
		}
	}
	return utils
}

func TestDecentralizedConvergesNearBounds(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	ctl, err := NewDecentralized(st, DecentralizedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	utils := runDecentralizedLoop(t, ctl, st, 1.0, 120)
	// The min-rule is conservative: at least one ECU reaches its bound
	// (the binding one) and none exceeds it.
	reached := false
	for j, u := range utils {
		if u > sys.UtilBound[j]+0.01 {
			t.Errorf("u[%d] = %v above bound %v", j, u, sys.UtilBound[j])
		}
		if math.Abs((u - sys.UtilBound[j]).Float()) < 0.02 {
			reached = true
		}
	}
	if !reached {
		t.Errorf("no ECU reached its bound: %v (bounds %v)", utils, sys.UtilBound)
	}
}

func TestDecentralizedReportsSaturation(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	st.SetRateFloor(0, 60)
	st.SetRateFloor(1, 80) // ECU1 over bound at the floors
	ctl, err := NewDecentralized(st, DecentralizedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for k := 0; k < 40; k++ {
		var err error
		res, err = ctl.Step(st.EstimatedUtilizations())
		if err != nil {
			t.Fatal(err)
		}
	}
	if !res.Saturated[0] || !res.Saturated[1] {
		t.Errorf("Saturated = %v, want both pinned (ECU1 overloaded at floors)", res.Saturated)
	}
	if u := st.EstimatedUtilization(1); u <= sys.UtilBound[1] {
		t.Errorf("u1 = %v, expected stuck above bound %v", u, sys.UtilBound[1])
	}
}

func TestDecentralizedRatesStayInBox(t *testing.T) {
	sys := makeSystem(t)
	if err := quick.Check(func(gRaw uint8) bool {
		g := 0.75 + 1.0*float64(gRaw)/255
		st := taskmodel.NewState(sys)
		ctl, err := NewDecentralized(st, DecentralizedConfig{})
		if err != nil {
			return false
		}
		for k := 0; k < 60; k++ {
			utils := st.EstimatedUtilizations()
			for j := range utils {
				utils[j] = utils[j].Scale(g)
			}
			res, err := ctl.Step(utils)
			if err != nil {
				return false
			}
			for ti, r := range res.Rates {
				if r < st.RateFloor(taskmodel.TaskID(ti))-1e-9 || r > sys.Tasks[ti].RateMax+1e-9 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDecentralizedValidation(t *testing.T) {
	sys := makeSystem(t)
	st := taskmodel.NewState(sys)
	bad := []DecentralizedConfig{
		{Gain: -1},
		{Gain: 2.5},
		{Gain: 1, BoundMargin: -0.1},
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		bad = append(bad, DecentralizedConfig{Gain: x}, DecentralizedConfig{Gain: 1, BoundMargin: units.RawUtil(x)})
	}
	for _, cfg := range bad {
		if _, err := NewDecentralized(st, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	ctl, err := NewDecentralized(st, DecentralizedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step([]units.Util{0.5}); err == nil {
		t.Error("wrong utilization vector length accepted")
	}
}

// TestDecentralizedVsCentralizedOperatingPoint compares the settled points:
// the decentralized min-rule is conservative, so its total utilization is
// at most the centralized MPC's, but it must come close on the binding ECU.
func TestDecentralizedVsCentralizedOperatingPoint(t *testing.T) {
	sys := makeSystem(t)

	stC := taskmodel.NewState(sys)
	central, err := New(stC, Config{})
	if err != nil {
		t.Fatal(err)
	}
	runClosedLoop(t, central, stC, 1.0, 40)

	stD := taskmodel.NewState(sys)
	decentral, err := NewDecentralized(stD, DecentralizedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runDecentralizedLoop(t, decentral, stD, 1.0, 120)

	for j := 0; j < sys.NumECUs; j++ {
		uc, ud := stC.EstimatedUtilization(j), stD.EstimatedUtilization(j)
		if ud > uc+0.05 {
			t.Errorf("ECU%d: decentralized %v well above centralized %v", j, ud, uc)
		}
	}
	// The binding ECU is fully used by both.
	if u := stD.EstimatedUtilization(1); math.Abs((u - sys.UtilBound[1]).Float()) > 0.03 {
		t.Errorf("decentralized binding ECU at %v, want ~%v", u, sys.UtilBound[1])
	}
}
