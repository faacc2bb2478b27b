package taskmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/units"
)

// twoECUSystem builds a small valid system used throughout these tests:
// T1 = chain across ECU0 → ECU1, T2 = single subtask on ECU0.
func twoECUSystem() *System {
	return &System{
		NumECUs: 2,
		Tasks: []*Task{
			{
				Name: "steering",
				Subtasks: []Subtask{
					{Name: "compute", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 0.4, Weight: 2},
					{Name: "actuate", ECU: 1, NominalExec: simtime.FromMillis(5), MinRatio: 1, Weight: 1},
				},
				RateMin: 5, RateMax: 25,
			},
			{
				Name: "abs",
				Subtasks: []Subtask{
					{Name: "abs", ECU: 0, NominalExec: simtime.FromMillis(4), MinRatio: 1, Weight: 1},
				},
				RateMin: 10, RateMax: 50, InitRate: 20,
			},
		},
	}
}

func TestRMSBound(t *testing.T) {
	tests := []struct {
		n    int
		want float64
	}{
		{0, 1},
		{1, 1},
		{2, 2 * (math.Sqrt2 - 1)}, // ≈ 0.828
		{3, 3 * (math.Pow(2, 1.0/3) - 1)},
	}
	for _, tt := range tests {
		if got := RMSBound(tt.n); math.Abs(got.Float()-tt.want) > 1e-12 {
			t.Errorf("RMSBound(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestRMSBoundMonotoneProperty(t *testing.T) {
	// The bound decreases with n and stays above ln 2.
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		b := RMSBound(n)
		return b <= RMSBound(n-1)+1e-15 && b > math.Ln2-1e-12 && b <= 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// ECU0 hosts 2 subtasks, ECU1 hosts 1.
	if got, want := s.UtilBound[0], RMSBound(2); math.Abs((got - want).Float()) > 1e-12 {
		t.Errorf("UtilBound[0] = %v, want RMS(2) = %v", got, want)
	}
	if got := s.UtilBound[1]; got != 1 {
		t.Errorf("UtilBound[1] = %v, want 1", got)
	}
	if got := s.Tasks[0].InitRate; got != 5 {
		t.Errorf("InitRate defaulted to %v, want RateMin 5", got)
	}
}

func TestValidateRejections(t *testing.T) {
	type rejection struct {
		name    string
		mutate  func(*System)
		wantSub string
	}
	tests := []rejection{
		{"no ECUs", func(s *System) { s.NumECUs = 0 }, "NumECUs"},
		{"empty tasks", func(s *System) { s.Tasks = nil }, "empty task set"},
		{"no subtasks", func(s *System) { s.Tasks[0].Subtasks = nil }, "no subtasks"},
		{"bad rate min", func(s *System) { s.Tasks[0].RateMin = 0 }, "RateMin"},
		{"rate range inverted", func(s *System) { s.Tasks[0].RateMax = 1 }, "RateMax"},
		{"init rate outside", func(s *System) { s.Tasks[0].InitRate = 100 }, "InitRate"},
		{"ecu out of range", func(s *System) { s.Tasks[0].Subtasks[0].ECU = 5 }, "ECU"},
		{"zero exec", func(s *System) { s.Tasks[0].Subtasks[0].NominalExec = 0 }, "NominalExec"},
		{"bad ratio", func(s *System) { s.Tasks[0].Subtasks[0].MinRatio = 0 }, "MinRatio"},
		{"ratio above one", func(s *System) { s.Tasks[0].Subtasks[0].MinRatio = 1.5 }, "MinRatio"},
		{"negative weight", func(s *System) { s.Tasks[0].Subtasks[0].Weight = -1 }, "Weight"},
		{"bound length", func(s *System) { s.UtilBound = []units.Util{0.5} }, "UtilBound length"},
		{"bound range", func(s *System) { s.UtilBound = []units.Util{0.5, 1.5} }, "UtilBound[1]"},
	}
	// Non-finite values pass every ordered comparison or bound check they
	// are not explicitly tested against; each float field must refuse both.
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []struct {
		kind string
		x    float64
	}{{"NaN", nan}, {"+Inf", inf}} {
		x := v.x
		tests = append(tests, []rejection{
			{v.kind + " rate min", func(s *System) { s.Tasks[0].RateMin = units.RawRate(x) }, "RateMin"},
			{v.kind + " rate max", func(s *System) { s.Tasks[0].RateMax = units.RawRate(x) }, "RateMax"},
			{v.kind + " init rate", func(s *System) { s.Tasks[0].InitRate = units.RawRate(x) }, "InitRate"},
			{v.kind + " min ratio", func(s *System) { s.Tasks[0].Subtasks[0].MinRatio = units.RawRatio(x) }, "MinRatio"},
			{v.kind + " weight", func(s *System) { s.Tasks[0].Subtasks[0].Weight = x }, "Weight"},
			{v.kind + " ratio step", func(s *System) { s.Tasks[0].Subtasks[0].RatioStep = units.RawRatio(x) }, "RatioStep"},
			{v.kind + " util bound", func(s *System) { s.UtilBound = []units.Util{0.5, units.RawUtil(x)} }, "UtilBound[1]"},
		}...)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := twoECUSystem()
			tt.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid system")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestOnECU(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	on0 := s.OnECU(0)
	if len(on0) != 2 || on0[0] != (SubtaskRef{0, 0}) || on0[1] != (SubtaskRef{1, 0}) {
		t.Errorf("OnECU(0) = %v", on0)
	}
	on1 := s.OnECU(1)
	if len(on1) != 1 || on1[0] != (SubtaskRef{0, 1}) {
		t.Errorf("OnECU(1) = %v", on1)
	}
}

func TestSubtaskRefString(t *testing.T) {
	if got := (SubtaskRef{2, 1}).String(); got != "T3_2" {
		t.Errorf("String = %q, want T3_2", got)
	}
}

func TestStateInitAndClamps(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	if st.Rate(0) != 5 || st.Rate(1) != 20 {
		t.Errorf("initial rates = %v, %v", st.Rate(0), st.Rate(1))
	}
	if got := st.SetRate(0, 100); got != 25 {
		t.Errorf("SetRate above max = %v, want clamp to 25", got)
	}
	if got := st.SetRate(0, 1); got != 5 {
		t.Errorf("SetRate below floor = %v, want clamp to 5", got)
	}
	if got := st.SetRatio(SubtaskRef{0, 0}, 0.1); got != 0.4 {
		t.Errorf("SetRatio below min = %v, want 0.4", got)
	}
	if got := st.SetRatio(SubtaskRef{0, 0}, 2); got != 1 {
		t.Errorf("SetRatio above one = %v, want 1", got)
	}
	// Non-adjustable subtask is pinned at 1.
	if got := st.SetRatio(SubtaskRef{0, 1}, 0.5); got != 1 {
		t.Errorf("non-adjustable ratio = %v, want pinned at 1", got)
	}
}

func TestRateFloorMove(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	st.SetRate(0, 10)
	// Raising the floor above the current rate pulls the rate up.
	st.SetRateFloor(0, 15)
	if st.Rate(0) != 15 {
		t.Errorf("rate after floor raise = %v, want 15", st.Rate(0))
	}
	if !st.RateSaturated(0, 1e-9) {
		t.Error("rate at floor not reported saturated")
	}
	// Lowering the floor leaves the rate in place (the paper's point: no
	// automatic under-utilization on deceleration).
	st.SetRateFloor(0, 5)
	if st.Rate(0) != 15 {
		t.Errorf("rate after floor drop = %v, want unchanged 15", st.Rate(0))
	}
	if st.RateSaturated(0, 1e-9) {
		t.Error("rate above floor reported saturated")
	}
	// Floor is capped at RateMax.
	if got := st.SetRateFloor(0, 1000); got != 25 {
		t.Errorf("floor clamped to %v, want RateMax 25", got)
	}
}

func TestEstimatedUtilization(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	st.SetRate(0, 10)                // T1: 10ms·a·10Hz on ECU0 + 5ms·10Hz on ECU1
	st.SetRate(1, 20)                // T2: 4ms·20Hz on ECU0
	want0 := 0.010*1*10 + 0.004*1*20 // 0.18
	if got := st.EstimatedUtilization(0); math.Abs(got.Float()-want0) > 1e-12 {
		t.Errorf("u0 = %v, want %v", got, want0)
	}
	if got := st.EstimatedUtilization(1); math.Abs(got.Float()-0.05) > 1e-12 {
		t.Errorf("u1 = %v, want 0.05", got)
	}
	st.SetRatio(SubtaskRef{0, 0}, 0.5)
	wantHalf := 0.010*0.5*10 + 0.004*1*20
	if got := st.EstimatedUtilization(0); math.Abs(got.Float()-wantHalf) > 1e-12 {
		t.Errorf("u0 with a=0.5 = %v, want %v", got, wantHalf)
	}
	us := st.EstimatedUtilizations()
	if len(us) != 2 || us[0] != st.EstimatedUtilization(0) {
		t.Errorf("EstimatedUtilizations = %v", us)
	}
}

func TestTotalPrecision(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	if got := st.TotalPrecision(); got != 4 { // weights 2+1+1 at a=1
		t.Errorf("TotalPrecision = %v, want 4", got)
	}
	st.SetRatio(SubtaskRef{0, 0}, 0.5)
	if got := st.TotalPrecision(); got != 3 { // 2·0.5 + 1 + 1
		t.Errorf("TotalPrecision = %v, want 3", got)
	}
}

func TestPeriodAndSubdeadline(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	st.SetRate(0, 10)
	if got := st.Period(0); got != 100*simtime.Millisecond {
		t.Errorf("Period = %v, want 100ms", got)
	}
	if got := st.Subdeadline(0); got != 100*simtime.Millisecond {
		t.Errorf("Subdeadline = %v, want one period (100ms)", got)
	}
	if got := st.E2EDeadline(0); got != 200*simtime.Millisecond {
		t.Errorf("E2EDeadline = %v, want 200ms (n·p with n=2)", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	cp := st.Clone()
	cp.SetRate(0, 20)
	cp.SetRatio(SubtaskRef{0, 0}, 0.4)
	cp.SetRateFloor(1, 30)
	if st.Rate(0) != 5 || st.Ratio(SubtaskRef{0, 0}) != 1 || st.RateFloor(1) != 10 {
		t.Error("Clone shares mutable state with original")
	}
}

// Property: EstimatedUtilization is monotone in every rate and ratio.
func TestUtilizationMonotoneProperty(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(r1, r2, aRaw uint8) bool {
		st := NewState(s)
		rate := units.Rate(5 + float64(r1%20))
		st.SetRate(0, rate)
		st.SetRate(1, units.Rate(10+float64(r2%40)))
		a := units.Ratio(0.4 + 0.6*float64(aRaw)/255)
		st.SetRatio(SubtaskRef{0, 0}, a)
		u := st.EstimatedUtilization(0)
		st.SetRate(0, rate+1)
		if st.EstimatedUtilization(0) < u {
			return false
		}
		st.SetRate(0, rate)
		st.SetRatio(SubtaskRef{0, 0}, a+0.01)
		return st.EstimatedUtilization(0) >= u
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFullPrecision(t *testing.T) {
	s := twoECUSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(s)
	if !st.FullPrecision() {
		t.Error("fresh state not at full precision")
	}
	st.SetRatio(SubtaskRef{0, 0}, 0.5)
	if st.FullPrecision() {
		t.Error("reduced ratio reported as full precision")
	}
	st.SetRatio(SubtaskRef{0, 0}, 1)
	if !st.FullPrecision() {
		t.Error("restored state not at full precision")
	}
}
