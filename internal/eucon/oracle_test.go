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
// it threads the same warm-start state (previous move, previous solution)
// from one period to the next.
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

// Bound states of the naive active-set solve.
const (
	naiveFree = iota
	naiveLo
	naiveHi
	naiveFixed
)

// solveNaive is the active-set method of BoxLSQWorkspace.SolveNormal in
// naive form: fresh slices on every step, the free block copied out into
// its own matrix before it is factored, and the multiplier test on a full
// gradient H·x. The arithmetic — every summation order, the ratio test, the
// clamped step, the undone release — is the workspace's, operation for
// operation, so the two agree bit for bit.
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

	x := make([]float64, nn)
	if x0 != nil {
		copy(x, x0)
	} else {
		for i := range x {
			x[i] = (lo[i] + hi[i]) / 2
		}
	}
	linalg.ClampVec(x, lo, hi)
	state := make([]int, nn)
	held := make([]bool, nn)
	for i := 0; i < nn; i++ {
		switch {
		case lo[i] == hi[i]:
			x[i], state[i] = lo[i], naiveFixed
		case ata.At(i, i) == 0:
			state[i] = naiveFixed
			switch {
			case atb[i] > 0:
				x[i] = hi[i]
			case atb[i] < 0:
				x[i] = lo[i]
			default:
				x[i] = linalg.Clamp(0, lo[i], hi[i])
			}
		case x[i] == lo[i]:
			state[i] = naiveLo
		case x[i] == hi[i]:
			state[i] = naiveHi
		}
	}

	changes := 0
	change := func() error {
		changes++
		if changes > opts.MaxSetChanges {
			return fmt.Errorf("eucon: reference solve did not converge within %d set changes", opts.MaxSetChanges)
		}
		return nil
	}
	released, releasedFrom := -1, naiveFree
	for {
		var free []int
		for i, st := range state {
			if st == naiveFree {
				free = append(free, i)
			}
		}
		z, err := solveFreeNaive(ata, atb, x, state, free)
		if err != nil {
			return nil, err
		}
		if released >= 0 && ((releasedFrom == naiveLo && z[released] <= lo[released]) ||
			(releasedFrom == naiveHi && z[released] >= hi[released])) {
			state[released] = releasedFrom
			held[released] = true
		} else {
			if released >= 0 {
				held = make([]bool, nn)
			}
			block, alpha := -1, 1.0
			for _, i := range free {
				var a float64
				if z[i] < lo[i] {
					a = (lo[i] - x[i]) / (z[i] - x[i])
				} else if z[i] > hi[i] {
					a = (hi[i] - x[i]) / (z[i] - x[i])
				} else {
					continue
				}
				if block < 0 || a < alpha {
					block, alpha = i, a
				}
			}
			if block >= 0 {
				for _, i := range free {
					x[i] = linalg.Clamp(x[i]+alpha*(z[i]-x[i]), lo[i], hi[i])
				}
				if z[block] < lo[block] {
					x[block], state[block] = lo[block], naiveLo
				} else {
					x[block], state[block] = hi[block], naiveHi
				}
				released = -1
				if err := change(); err != nil {
					return nil, err
				}
				continue
			}
			for _, i := range free {
				x[i] = z[i]
			}
		}

		grad := ata.MulVec(x)
		worst, k := 0.0, -1
		for i, st := range state {
			if (st != naiveLo && st != naiveHi) || held[i] {
				continue
			}
			v := grad[i] - atb[i]
			if st == naiveLo {
				v = -v
			}
			if v > worst {
				worst, k = v, i
			}
		}
		if k < 0 {
			return x, nil
		}
		released, releasedFrom = k, state[k]
		state[k] = naiveFree
		if err := change(); err != nil {
			return nil, err
		}
	}
}

// solveFreeNaive returns a fresh vector whose free entries minimize the
// quadratic over the free variables with every other variable held at x:
// H_FF·z_F = b_F − H_FB·x_B, by a Cholesky factor of a copy of H_FF.
func solveFreeNaive(h *linalg.Matrix, b, x []float64, state, free []int) ([]float64, error) {
	z := make([]float64, len(x))
	k := len(free)
	if k == 0 {
		return z, nil
	}
	rhs := make([]float64, k)
	for r, i := range free {
		s := b[i]
		for j := range x {
			if state[j] != naiveFree {
				s -= h.At(i, j) * x[j]
			}
		}
		rhs[r] = s
	}
	hff := linalg.NewMatrix(k, k)
	for r, i := range free {
		for c, j := range free {
			hff.Set(r, c, h.At(i, j))
		}
	}
	l := linalg.NewMatrix(k, k)
	for c := 0; c < k; c++ {
		d := hff.At(c, c)
		for p := 0; p < c; p++ {
			d -= l.At(c, p) * l.At(c, p)
		}
		if !(d > 0) {
			return nil, fmt.Errorf("eucon: reference solve free block not positive definite (pivot %g)", d)
		}
		d = math.Sqrt(d)
		l.Set(c, c, d)
		for r := c + 1; r < k; r++ {
			s := hff.At(r, c)
			for p := 0; p < c; p++ {
				s -= l.At(r, p) * l.At(c, p)
			}
			l.Set(r, c, s/d)
		}
	}
	y := make([]float64, k)
	for r := 0; r < k; r++ {
		s := rhs[r]
		for p := 0; p < r; p++ {
			s -= l.At(r, p) * y[p]
		}
		y[r] = s / l.At(r, r)
	}
	zf := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		s := y[r]
		for p := r + 1; p < k; p++ {
			s -= l.At(p, r) * zf[p]
		}
		zf[r] = s / l.At(r, r)
	}
	for r, i := range free {
		if math.IsNaN(zf[r]) || math.IsInf(zf[r], 0) {
			return nil, fmt.Errorf("eucon: reference solve free-block solution not finite at coordinate %d", i)
		}
		z[i] = zf[r]
	}
	return z, nil
}
