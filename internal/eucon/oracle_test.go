package eucon

import (
	"fmt"
	"math"

	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Reference is the allocation-heavy, obviously-correct implementation of
// the centralized MPC. It computes exactly the formulas documented on
// normalEquations — in the same per-entry accumulation order — but with
// fresh allocations on every call and a straightforward inline solver, and
// it threads the same warm-start state (previous move, previous solution,
// power-iteration eigenvector) from one period to the next.
//
// Purpose: the golden-equivalence tests drive Controller and Reference
// through the paper's closed-loop scenarios and require bit-identical
// control sequences. Because the arithmetic is pinned to be identical, any
// divergence can only come from the optimized hot path's buffer reuse —
// a stale value, a missed reset, cross-period state leakage — which is
// precisely the class of bug a zero-allocation refactor can introduce.
// Reference is test infrastructure, not a production controller, so it
// lives in a test file.
type Reference struct {
	state *taskmodel.State
	cfg   Config

	prevDelta []float64
	prevX     []float64
	warm      bool
	eig       []float64
	haveEig   bool
}

// NewReference builds the naive controller on its own operating point.
func NewReference(state *taskmodel.State, cfg Config) (*Reference, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Reference{
		state:     state,
		cfg:       cfg,
		prevDelta: make([]float64, len(state.System().Tasks)),
	}, nil
}

// Step runs one control period, mirroring Controller.Step value for value.
func (c *Reference) Step(utils []units.Util) (Result, error) {
	sys := c.state.System()
	n, m := sys.NumECUs, len(sys.Tasks)
	if len(utils) != n {
		return Result{}, fmt.Errorf("eucon: got %d utilizations, want %d", len(utils), n)
	}
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	cols := mh * m

	// Load matrix F (fresh).
	f := linalg.NewMatrix(n, m)
	for ti, task := range sys.Tasks {
		for si := range task.Subtasks {
			sub := &task.Subtasks[si]
			ref := taskmodel.SubtaskRef{Task: taskmodel.TaskID(ti), Index: si}
			f.Add(sub.ECU, ti, sub.NominalExec.Seconds()*c.state.Ratio(ref).Float())
		}
	}
	rho := controlPenaltyRho(f, c.cfg.ControlPenalty)

	// Per-ECU weights and weighted headrooms.
	wj := make([]float64, n)
	wb := make([]float64, n)
	for j := 0; j < n; j++ {
		target := sys.UtilBound[j] - c.cfg.BoundMargin
		w := 1.0
		if utils[j] > target+0.02 {
			w = c.cfg.OverloadWeight
		}
		wj[j] = w
		wb[j] = w * utils[j].Headroom(target).Float()
	}

	// Row-weighted load matrix, its Gram matrix (via the naive transpose
	// product — bit-identical to the in-place kernel by construction) and
	// the weighted-headroom image.
	wf := linalg.NewMatrix(n, m)
	for j := 0; j < n; j++ {
		for t := 0; t < m; t++ {
			wf.Set(j, t, wj[j]*f.At(j, t))
		}
	}
	gram := wf.Transpose().Mul(wf)
	gb := make([]float64, m)
	for t := 0; t < m; t++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += wf.At(j, t) * wb[j]
		}
		gb[t] = s
	}

	sums := make([]float64, mh)
	for l := 0; l < mh; l++ {
		s := 0.0
		for i := l + 1; i <= p; i++ {
			s += 1 - pow(c.cfg.RefDecay, i)
		}
		sums[l] = s
	}

	// AᵀA and Aᵀb, same block formulas and same per-entry accumulation
	// sequence as normalEquations.
	ata := linalg.NewMatrix(cols, cols)
	atb := make([]float64, cols)
	for l1 := 0; l1 < mh; l1++ {
		for l2 := 0; l2 < mh; l2++ {
			count := p - l1
			if l2 > l1 {
				count = p - l2
			}
			cf := float64(count)
			for t1 := 0; t1 < m; t1++ {
				for t2 := 0; t2 < m; t2++ {
					ata.Set(l1*m+t1, l2*m+t2, cf*gram.At(t1, t2))
				}
			}
		}
	}
	for l := 0; l < mh; l++ {
		for t := 0; t < m; t++ {
			atb[l*m+t] = sums[l] * gb[t]
		}
	}
	rho2 := rho * rho
	for i := 1; i <= mh; i++ {
		for t := 0; t < m; t++ {
			d1 := (i-1)*m + t
			ata.Add(d1, d1, rho2)
			if i >= 2 {
				d0 := (i-2)*m + t
				ata.Add(d0, d0, rho2)
				ata.Add(d1, d0, -rho2)
				ata.Add(d0, d1, -rho2)
			} else {
				atb[d1] += rho2 * c.prevDelta[t]
			}
		}
	}

	// Box bounds.
	lo := make([]float64, cols)
	hi := make([]float64, cols)
	for ti := 0; ti < m; ti++ {
		r := c.state.Rate(taskmodel.TaskID(ti))
		lo[ti] = (c.state.RateFloor(taskmodel.TaskID(ti)) - r).Float()
		hi[ti] = (sys.Tasks[ti].RateMax - r).Float()
		span := (sys.Tasks[ti].RateMax - sys.Tasks[ti].RateMin).Float()
		for l := 1; l < mh; l++ {
			lo[l*m+ti] = -span
			hi[l*m+ti] = span
		}
	}

	var x0 []float64
	if c.warm {
		x0 = c.prevX
	}
	x, err := c.solveNaive(ata, atb, lo, hi, x0, linalg.DefaultBoxLSQOptions())
	if err != nil {
		return Result{}, fmt.Errorf("eucon: MPC solve: %w", err)
	}
	c.prevX = x
	c.warm = true

	res := Result{
		Rates:     make([]units.Rate, m),
		Delta:     make([]units.Rate, m),
		Saturated: make([]bool, m),
	}
	for ti := 0; ti < m; ti++ {
		id := taskmodel.TaskID(ti)
		res.Delta[ti] = units.RawRate(x[ti])
		res.Rates[ti] = c.state.SetRate(id, c.state.Rate(id)+units.RawRate(x[ti]))
		res.Saturated[ti] = c.state.RateSaturated(id, 1e-9)
		c.prevDelta[ti] = x[ti]
	}
	return res, nil
}

// solveNaive is accelerated projected gradient (FISTA with gradient
// restart) on the normal equations, matching BoxLSQWorkspace.SolveNormal
// operation for operation but with fresh buffers each call. The
// power-iteration eigenvector is the one piece of threaded state
// (c.eig / c.haveEig), exactly as the workspace carries it.
func (c *Reference) solveNaive(ata *linalg.Matrix, atb, lo, hi, x0 []float64, opts linalg.BoxLSQOptions) ([]float64, error) {
	nn := ata.Cols()
	for i := 0; i < nn; i++ {
		if lo[i] > hi[i] {
			return nil, fmt.Errorf("eucon: reference solve empty box at coordinate %d: [%g, %g]", i, lo[i], hi[i])
		}
	}
	if opts.Ridge > 0 {
		for i := 0; i < nn; i++ {
			ata.Add(i, i, opts.Ridge)
		}
	}

	lip := c.spectralNormNaive(ata)
	x := make([]float64, nn)
	if lip <= 0 {
		for i := range x {
			x[i] = linalg.Clamp(0, lo[i], hi[i])
		}
		return x, nil
	}
	step := 1 / lip

	if x0 != nil {
		copy(x, x0)
	} else {
		for i := range x {
			x[i] = (lo[i] + hi[i]) / 2
		}
	}
	linalg.ClampVec(x, lo, hi)

	xn := make([]float64, nn)
	y := make([]float64, nn)
	copy(y, x)
	t := 1.0
	for iter := 0; iter < opts.MaxIter; iter++ {
		grad := ata.MulVec(y)
		maxMove := 0.0
		restart := 0.0
		for i := 0; i < nn; i++ {
			g := grad[i] - atb[i]
			next := linalg.Clamp(y[i]-step*g, lo[i], hi[i])
			if d := math.Abs(next - y[i]); d > maxMove {
				maxMove = d
			}
			restart += (y[i] - next) * (next - x[i])
			xn[i] = next
		}
		if restart > 0 {
			t = 1
			copy(y, xn)
		} else {
			tn := (1 + math.Sqrt(1+4*t*t)) / 2
			beta := (t - 1) / tn
			for i := 0; i < nn; i++ {
				y[i] = xn[i] + beta*(xn[i]-x[i])
			}
			t = tn
		}
		copy(x, xn)
		if maxMove <= opts.Tol {
			break
		}
	}
	return x, nil
}

// spectralNormNaive is the power iteration of BoxLSQWorkspace.spectralNorm
// with fresh scratch, threading the eigenvector estimate through c.eig.
func (c *Reference) spectralNormNaive(m *linalg.Matrix) float64 {
	n := m.Rows()
	if len(c.eig) != n {
		c.eig = make([]float64, n)
		c.haveEig = false
	}
	v := make([]float64, n)
	if c.haveEig {
		copy(v, c.eig)
	} else {
		inv := 1 / math.Sqrt(float64(n))
		for i := range v {
			v[i] = inv
		}
	}
	lambda := 0.0
	for iter := 0; iter < 100; iter++ {
		w := m.MulVec(v)
		norm := linalg.Norm2(w)
		if norm == 0 {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		t := m.MulVec(w)
		newLambda := linalg.Dot(w, t)
		copy(v, w)
		if math.Abs(newLambda-lambda) <= 1e-12*math.Max(1, math.Abs(newLambda)) {
			copy(c.eig, v)
			c.haveEig = true
			return newLambda
		}
		lambda = newLambda
	}
	copy(c.eig, v)
	c.haveEig = true
	return lambda
}
