package tracking

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/vehicle"
)

func newMPC(t *testing.T) *Controller {
	t.Helper()
	c, err := New(Config{Params: vehicle.ScaledCar()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Params: vehicle.Params{}},                                  // invalid car
		{Params: vehicle.ScaledCar(), Dt: -1},                       // bad dt
		{Params: vehicle.ScaledCar(), HorizonMin: 5, HorizonMax: 2}, // inverted range
		{Params: vehicle.ScaledCar(), WeightLateral: -1},
		{Params: vehicle.ScaledCar(), ExecPerStep: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHorizonFor(t *testing.T) {
	c := newMPC(t) // HorizonMax 20, HorizonMin 2
	tests := []struct {
		ratio float64
		want  int
	}{
		{1.0, 20},
		{0.5, 10},
		{0.05, 2}, // clamped to min
		{0.3, 6},
	}
	for _, tt := range tests {
		if got := c.HorizonFor(tt.ratio); got != tt.want {
			t.Errorf("HorizonFor(%v) = %d, want %d", tt.ratio, got, tt.want)
		}
	}
}

func TestExecTimeAffine(t *testing.T) {
	c := newMPC(t) // 1ms base + 1ms/step
	if got := c.ExecTime(10); got != simtime.FromMillis(11) {
		t.Errorf("ExecTime(10) = %v, want 11ms", got)
	}
	// The relation is affine: equal increments.
	d1 := c.ExecTime(11) - c.ExecTime(10)
	d2 := c.ExecTime(21) - c.ExecTime(20)
	if d1 != d2 {
		t.Error("ExecTime not affine")
	}
	// Inverse round-trips within the valid range.
	for n := 2; n <= 20; n++ {
		if got := c.HorizonForExecTime(c.ExecTime(n)); got != n {
			t.Errorf("HorizonForExecTime(ExecTime(%d)) = %d", n, got)
		}
	}
}

func TestSteerSignConvention(t *testing.T) {
	c := newMPC(t)
	// Car below the reference line: steer left (positive).
	s := vehicle.State{X: 0, Y: -0.1, V: 0.7}
	if got := c.Steer(s, vehicle.StraightPath{}, 10); got <= 0 {
		t.Errorf("steer = %v for car below path, want > 0", got)
	}
	// Car above: steer right (negative).
	s.Y = 0.1
	if got := c.Steer(s, vehicle.StraightPath{}, 10); got >= 0 {
		t.Errorf("steer = %v for car above path, want < 0", got)
	}
	// On the path with zero heading error: no steering.
	s.Y = 0
	if got := c.Steer(s, vehicle.StraightPath{}, 10); math.Abs(got) > 1e-9 {
		t.Errorf("steer = %v on path, want 0", got)
	}
}

func TestSteerRespectsLimit(t *testing.T) {
	c := newMPC(t)
	s := vehicle.State{Y: -10, V: 0.7} // huge error
	got := c.Steer(s, vehicle.StraightPath{}, 10)
	if got > vehicle.ScaledCar().MaxSteer+1e-9 {
		t.Errorf("steer = %v exceeds MaxSteer", got)
	}
}

func TestSteerStationaryVehicle(t *testing.T) {
	c := newMPC(t)
	s := vehicle.State{Y: -1, V: 0}
	if got := c.Steer(s, vehicle.StraightPath{}, 10); got != 0 {
		t.Errorf("steer = %v when stationary, want 0", got)
	}
}

// TestClosedLoopTracksLaneChange drives the full maneuver closed-loop and
// requires centimeter-level accuracy at full horizon — the regression
// anchor for the Figure 10(a) AutoE2E result.
func TestClosedLoopTracksLaneChange(t *testing.T) {
	params := vehicle.ScaledCar()
	c, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	path := vehicle.ScaledDoubleLaneChange()
	car := vehicle.State{V: 0.7}
	steer := 0.0
	maxErr := 0.0
	for k := 0; k < 3000; k++ { // 30 s at 10 ms
		car.Step(params, steer, 0, 0.01)
		if k%5 == 0 { // 50 ms control period
			steer = c.Steer(car, path, 20)
		}
		if e := math.Abs(vehicle.TrackingError(path, car.X, car.Y)); e > maxErr {
			maxErr = e
		}
	}
	// The paper reports a 5 cm maximum for AutoE2E on the scaled car.
	if maxErr > 0.05 {
		t.Errorf("closed-loop max error = %vm, want < 5cm", maxErr)
	}
	if car.X < 15 {
		t.Errorf("car only reached x = %v, want full maneuver", car.X)
	}
}

// TestHorizonImprovesHardManeuver verifies the precision story of
// Figure 4(b): on a friction-limited maneuver a longer prediction horizon
// tracks better than a myopic one.
func TestHorizonImprovesHardManeuver(t *testing.T) {
	params := vehicle.FullSize()
	params.Friction = 0.35
	c, err := New(Config{Params: params, HorizonMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	path := vehicle.DoubleLaneChange{Start: 80, Length: 60, Hold: 40, LaneWidth: 3.5}
	run := func(n int) float64 {
		car := vehicle.State{V: 20}
		steer := 0.0
		maxErr := 0.0
		for k := 0; k < 1400; k++ {
			car.Step(params, steer, 0, 0.01)
			if k%3 == 0 {
				steer = c.Steer(car, path, n)
			}
			if e := math.Abs(vehicle.TrackingError(path, car.X, car.Y)); e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}
	short := run(2)
	long := run(25)
	if long >= short {
		t.Errorf("long horizon error %v not below short horizon %v", long, short)
	}
	if short < 0.3 {
		t.Errorf("short-horizon error %v too small — maneuver not friction-limited", short)
	}
}

// TestTracksDynamicPlant closes the loop between the kinematic-model MPC
// and the single-track (dynamic bicycle) plant: the controller must track
// the scaled lane change within centimeters despite the model mismatch —
// tire slip, yaw inertia and understeer it knows nothing about.
func TestTracksDynamicPlant(t *testing.T) {
	params := vehicle.ScaledCarDynamic()
	c, err := New(Config{Params: params.Params})
	if err != nil {
		t.Fatal(err)
	}
	path := vehicle.ScaledDoubleLaneChange()
	car := vehicle.DynamicState{Vx: 0.7}
	steer := 0.0
	maxErr := 0.0
	for k := 0; k < 3000; k++ {
		car.Step(params, steer, 0, 0.01)
		if k%5 == 0 {
			steer = c.Steer(car.Kinematic(), path, 20)
		}
		if e := math.Abs(vehicle.TrackingError(path, car.X, car.Y)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.08 {
		t.Errorf("dynamic-plant max error = %vm, want < 8cm", maxErr)
	}
	if car.X < 14 {
		t.Errorf("car only reached x = %v", car.X)
	}
}

// TestSteerDigest pins the steering sequence of the closed-loop lane change
// at three horizons, bit for bit, to the digests the damped solver produced
// when it still lived in linalg: moving it must not change one output.
func TestSteerDigest(t *testing.T) {
	params := vehicle.ScaledCar()
	c, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	path := vehicle.ScaledDoubleLaneChange()
	for _, tc := range []struct {
		n    int
		want uint64
	}{{20, 0x26ce33556b81c9d1}, {8, 0x12d7db9166e98a25}, {3, 0x7fecd39a26fc6d10}} {
		h := fnv.New64a()
		car := vehicle.State{V: 0.7}
		steer := 0.0
		var buf [8]byte
		for k := 0; k < 3000; k++ {
			car.Step(params, steer, 0, 0.01)
			if k%5 == 0 {
				steer = c.Steer(car, path, tc.n)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(steer))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("horizon %d: steering digest %#x, want %#x", tc.n, got, tc.want)
		}
	}
}

func TestSpectralNorm(t *testing.T) {
	// Known eigenvalues: diag(3, 1) => spectral norm 3.
	if got := spectralNorm(linalg.FromRows([][]float64{{3, 0}, {0, 1}})); math.Abs(got-3) > 1e-9 {
		t.Errorf("spectralNorm = %v, want 3", got)
	}
	// Symmetric 2x2 [[2,1],[1,2]] has eigenvalues 3 and 1.
	if got := spectralNorm(linalg.FromRows([][]float64{{2, 1}, {1, 2}})); math.Abs(got-3) > 1e-6 {
		t.Errorf("spectralNorm = %v, want 3", got)
	}
	if got := spectralNorm(linalg.NewMatrix(2, 2)); got != 0 {
		t.Errorf("spectralNorm of zero matrix = %v, want 0", got)
	}
}
