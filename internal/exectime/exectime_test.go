package exectime

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
)

func testSystem(t *testing.T) *taskmodel.System {
	t.Helper()
	sys := &taskmodel.System{
		NumECUs: 2,
		Tasks: []*taskmodel.Task{
			{
				Name: "t1",
				Subtasks: []taskmodel.Subtask{
					{Name: "a", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 0.5, Weight: 1},
					{Name: "b", ECU: 1, NominalExec: simtime.FromMillis(8), MinRatio: 1, Weight: 1},
				},
				RateMin: 5, RateMax: 20,
			},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

var (
	ref0 = taskmodel.SubtaskRef{Task: 0, Index: 0}
	ref1 = taskmodel.SubtaskRef{Task: 0, Index: 1}
)

func TestNominal(t *testing.T) {
	sys := testSystem(t)
	if got := (Nominal{}).Demand(sys, ref0, 0, 1); got != simtime.FromMillis(10) {
		t.Errorf("full ratio demand = %v, want 10ms", got)
	}
	if got := (Nominal{}).Demand(sys, ref0, 0, 0.5); got != simtime.FromMillis(5) {
		t.Errorf("half ratio demand = %v, want 5ms", got)
	}
}

func TestNominalNeverZero(t *testing.T) {
	sys := testSystem(t)
	if got := (Nominal{}).Demand(sys, ref0, 0, 1e-12); got < 1 {
		t.Errorf("demand = %v, want >= 1us", got)
	}
}

func TestGainAppliesPerECU(t *testing.T) {
	sys := testSystem(t)
	m := Gain{Inner: Nominal{}, PerECU: map[int]float64{0: 1.5}}
	if got := m.Demand(sys, ref0, 0, 1); got != simtime.FromMillis(15) {
		t.Errorf("gained demand = %v, want 15ms", got)
	}
	// ECU1 has no entry: unchanged.
	if got := m.Demand(sys, ref1, 0, 1); got != simtime.FromMillis(8) {
		t.Errorf("ungained demand = %v, want 8ms", got)
	}
}

func TestScriptSteps(t *testing.T) {
	sys := testSystem(t)
	// Motivation scenario: 12.1ms → 23.5ms is a factor of ~1.94.
	m := NewScript(Nominal{}, []Step{
		{Ref: ref0, At: simtime.At(100), Factor: 1.94},
		{Ref: ref0, At: simtime.At(200), Factor: 1.2},
	})
	if got := m.Demand(sys, ref0, simtime.At(50), 1); got != simtime.FromMillis(10) {
		t.Errorf("before step demand = %v, want 10ms", got)
	}
	if got := m.Demand(sys, ref0, simtime.At(100), 1); got != simtime.FromMillis(19.4) {
		t.Errorf("at step demand = %v, want 19.4ms", got)
	}
	if got := m.Demand(sys, ref0, simtime.At(300), 1); got != simtime.FromMillis(12) {
		t.Errorf("after second step demand = %v, want 12ms", got)
	}
	// Unscripted subtask untouched.
	if got := m.Demand(sys, ref1, simtime.At(300), 1); got != simtime.FromMillis(8) {
		t.Errorf("unscripted demand = %v, want 8ms", got)
	}
}

func TestScriptUnsortedInput(t *testing.T) {
	sys := testSystem(t)
	m := NewScript(Nominal{}, []Step{
		{Ref: ref0, At: simtime.At(200), Factor: 3},
		{Ref: ref0, At: simtime.At(100), Factor: 2},
	})
	if got := m.FactorAt(ref0, simtime.At(150)); got != 2 {
		t.Errorf("factor at 150s = %v, want 2 (steps must sort)", got)
	}
	_ = sys
}

func TestNoiseBoundsAndDeterminism(t *testing.T) {
	sys := testSystem(t)
	a := NewNoise(Nominal{}, 0.2, 42)
	b := NewNoise(Nominal{}, 0.2, 42)
	lo := simtime.Duration(float64(simtime.FromMillis(10)) * 0.8)
	hi := simtime.Duration(float64(simtime.FromMillis(10)) * 1.2)
	for i := 0; i < 200; i++ {
		da := a.Demand(sys, ref0, 0, 1)
		db := b.Demand(sys, ref0, 0, 1)
		if da != db {
			t.Fatal("same seed produced different demands")
		}
		if da < lo || da > hi {
			t.Fatalf("demand %v outside [%v, %v]", da, lo, hi)
		}
	}
}

func TestNoiseInvalidSpreadPanics(t *testing.T) {
	for _, spread := range []float64{1.0, -0.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spread %v did not panic", spread)
				}
			}()
			NewNoise(Nominal{}, spread, 1)
		}()
	}
}

// TestNoiseReseedClampsNaN pins Reseed's contract for a NaN spread: it
// runs as spread 0 (every demand nominal) and, like every Reseed, without
// allocating.
func TestNoiseReseedClampsNaN(t *testing.T) {
	sys := testSystem(t)
	n := NewNoise(Nominal{}, 0.2, 42)
	n.Reseed(math.NaN(), 7)
	for i := 0; i < 50; i++ {
		if d := n.Demand(sys, ref0, 0, 1); d != simtime.FromMillis(10) {
			t.Fatalf("demand %v after Reseed(NaN), want the nominal %v", d, simtime.FromMillis(10))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { n.Reseed(math.NaN(), 7) }); allocs != 0 {
		t.Errorf("Reseed(NaN) allocated %v times per call, want 0", allocs)
	}
}

// Property: demand scales linearly with ratio under Nominal, and composition
// Gain(Script(Nominal)) multiplies factors.
func TestCompositionProperty(t *testing.T) {
	sys := testSystem(t)
	if err := quick.Check(func(fRaw, gRaw uint8) bool {
		f := 0.5 + float64(fRaw)/128 // [0.5, ~2.5]
		g := 0.5 + float64(gRaw)/128
		m := Gain{
			Inner:  NewScript(Nominal{}, []Step{{Ref: ref0, At: 0, Factor: f}}),
			PerECU: map[int]float64{0: g},
		}
		got := m.Demand(sys, ref0, simtime.At(1), 1)
		want := simtime.Duration(float64(simtime.Duration(float64(simtime.FromMillis(10))*f)) * g)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1 // one microsecond of rounding slack
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGainNeverZero(t *testing.T) {
	sys := testSystem(t)
	m := Gain{Inner: Nominal{}, PerECU: map[int]float64{0: 1e-12}}
	if got := m.Demand(sys, ref0, 0, 1); got < 1 {
		t.Errorf("demand = %v, want >= 1us floor", got)
	}
}
