package linalg

import (
	"errors"
	"fmt"
	"math"
)

// LeastSquares solves min_x ||a·x − b||² via the regularized normal
// equations (aᵀa + ridge·I)x = aᵀb. A small ridge keeps the solve
// well-posed when a is rank-deficient, which happens in the MPC whenever
// two tasks load the same ECU set proportionally. Pass ridge = 0 for the
// exact normal equations.
func LeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("linalg: LeastSquares dimension mismatch %d != %d", a.Rows(), len(b))
	}
	ata := NewMatrix(a.Cols(), a.Cols())
	a.MulATAInto(ata)
	if ridge > 0 {
		for i := 0; i < ata.Rows(); i++ {
			ata.Add(i, i, ridge)
		}
	}
	atb := make([]float64, a.Cols())
	a.MulTVecInto(atb, b)
	return SolveLU(ata, atb)
}

// BoxLSQOptions tunes the box-constrained solver.
type BoxLSQOptions struct {
	// MaxSetChanges caps the active-set changes (a bound fixed by a
	// blocked step, or released by the multiplier test) one solve may
	// make. The controller problems here converge in a handful; reaching
	// the cap means the solve is cycling and is reported as an error.
	MaxSetChanges int
	// Ridge adds Tikhonov regularization, improving conditioning.
	Ridge float64
}

// DefaultBoxLSQOptions are sensible defaults for the controller problems in
// this repository.
func DefaultBoxLSQOptions() BoxLSQOptions {
	return BoxLSQOptions{MaxSetChanges: 1000, Ridge: 1e-9}
}

// SolveStatus reports the work one SolveNormal did. A solve that returns
// without error has Converged set: its point satisfies the KKT conditions
// with every multiplier of the right sign as computed.
type SolveStatus struct {
	// Factorizations counts Cholesky factorizations of a free block.
	Factorizations int
	// SetChanges counts bounds fixed by a blocked step or released by the
	// multiplier test.
	SetChanges int
	// Converged reports that the multiplier test passed.
	Converged bool
}

// Failures SolveNormal reports instead of returning an approximate point.
var (
	ErrNotConverged        = errors.New("linalg: box-constrained solve did not converge within MaxSetChanges active-set changes")
	ErrNotPositiveDefinite = errors.New("linalg: box-constrained solve met a free block that is not positive definite")
	ErrNotFinite           = errors.New("linalg: box-constrained solve produced a non-finite point")
)

// Per-variable bound state of the active-set solver.
const (
	varFree  int8 = iota // solved for on the free block
	varLo                // held at its lower bound
	varHi                // held at its upper bound
	varFixed             // never moves: a degenerate box, or a coordinate H does not couple
)

// BoxLSQWorkspace holds every buffer the box-constrained solver needs, so
// that repeated solves of same-sized problems perform zero heap
// allocations. It carries no state from one solve to the next except the
// last solve's Status. A workspace is owned by exactly one solver loop (it
// is not safe for concurrent use); the slice returned by SolveNormal
// aliases the workspace and is valid only until the next solve.
type BoxLSQWorkspace struct {
	x     []float64 // current iterate, returned to the caller
	z     []float64 // minimizer over the free block, bound variables held
	rhs   []float64 // free-block right-hand side, solved in place
	grad  []float64 // H·x, for the multiplier test
	l     []float64 // Cholesky factor of the free block, row-major k×k
	free  []int     // free variable indices, ascending
	state []int8    // bound state per variable
	held  []bool    // bounds whose release was undone, until a release is accepted

	status SolveStatus
}

// NewBoxLSQWorkspace returns an empty workspace; buffers grow on first use
// and are reused afterwards.
func NewBoxLSQWorkspace() *BoxLSQWorkspace { return &BoxLSQWorkspace{} }

// Status reports what the last SolveNormal did.
func (ws *BoxLSQWorkspace) Status() SolveStatus { return ws.status }

// ensure sizes every buffer for an n-dimensional solve.
func (ws *BoxLSQWorkspace) ensure(n int) {
	if len(ws.x) != n {
		buf := make([]float64, 4*n+n*n) //lint:allow effects workspace sizing on dimension change; same-dimension solves reuse every buffer
		ws.x, ws.z, ws.rhs, ws.grad, ws.l = buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
		ws.free = make([]int, n)   //lint:allow effects workspace sizing on dimension change; same-dimension solves reuse every buffer
		ws.state = make([]int8, n) //lint:allow effects workspace sizing on dimension change; same-dimension solves reuse every buffer
		ws.held = make([]bool, n)  //lint:allow effects workspace sizing on dimension change; same-dimension solves reuse every buffer
	}
}

// SolveNormal solves min_x ½·xᵀHx − bᵀx subject to lo ≤ x ≤ hi, with
// H = ata + opts.Ridge·I — the box-constrained least-squares problem
// expressed directly on its normal equations ata = aᵀa, atb = aᵀb. Callers
// that know the block structure of their problem build ata/atb in
// O(cols²) and skip materializing the stacked matrix entirely.
//
// The method is a primal active set (bounded-variable least squares, Stark
// & Parker 1995, after Lawson & Hanson's NNLS). Every variable is free or
// held at a bound. Each step factors the free block of H by Cholesky and
// solves for the free variables with the held ones fixed. If that point
// leaves the box, the step stops at the first bound it meets and holds
// that variable there; otherwise the point is accepted and the held
// variable whose multiplier has the worst sign is released. A release that
// would move its variable straight back out of the box is undone, and that
// bound stays out of the multiplier test until another release is
// accepted: this is how NNLS avoids cycling on rounding-level multipliers.
// The solve ends when no multiplier has the wrong sign: the KKT conditions
// hold to rounding, with no tolerance to tune. Coordinates with lo == hi,
// and coordinates H does not couple at all (a zero diagonal in a positive
// semi-definite H), are fixed at their optimum and never enter the free
// block.
//
// opts.Ridge is added to the diagonal of ata in place (the caller's matrix
// is mutated). x0 is the warm start: clamped into the box, its pattern of
// coordinates at a bound is the starting active set; pass nil to start
// from the box midpoint with every variable free. The returned slice is
// owned by the workspace and valid until the next solve; callers that
// retain it must copy.
//
// The solve fails, rather than returning an approximate point, on a
// non-finite entry of ata, atb, lo or hi (ErrNotFinite), when a free block
// is not numerically positive definite (ErrNotPositiveDefinite) or its
// solution is not finite (ErrNotFinite), or after opts.MaxSetChanges set
// changes (ErrNotConverged). A non-finite x0 entry starts at the lower
// bound.
func (ws *BoxLSQWorkspace) SolveNormal(ata *Matrix, atb, lo, hi, x0 []float64, opts BoxLSQOptions) ([]float64, error) {
	n := ata.Cols()
	if ata.Rows() != n {
		return nil, fmt.Errorf("linalg: SolveNormal on non-square %dx%d matrix", ata.Rows(), n)
	}
	if len(atb) != n || len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("linalg: SolveNormal vector length %d/%d/%d != %d", len(atb), len(lo), len(hi), n)
	}
	for i := 0; i < n; i++ {
		if !(lo[i] <= hi[i]) {
			return nil, fmt.Errorf("linalg: SolveNormal empty box at coordinate %d: [%g, %g]", i, lo[i], hi[i])
		}
		if !finite(atb[i]) || !finite(lo[i]) || !finite(hi[i]) {
			return nil, ErrNotFinite
		}
		for j := 0; j < n; j++ {
			if !finite(ata.At(i, j)) {
				return nil, ErrNotFinite
			}
		}
	}
	if x0 != nil && len(x0) != n {
		return nil, fmt.Errorf("linalg: SolveNormal x0 length %d != %d", len(x0), n)
	}
	if opts.MaxSetChanges <= 0 {
		opts = DefaultBoxLSQOptions()
	}
	ws.ensure(n) //lint:allow effects dimension-change resize; steady state hits the sized path
	if opts.Ridge > 0 {
		for i := 0; i < n; i++ {
			ata.Add(i, i, opts.Ridge)
		}
	}
	ws.status = SolveStatus{}

	x, st := ws.x, ws.state
	if x0 != nil {
		copy(x, x0)
	} else {
		for i := range x {
			x[i] = (lo[i] + hi[i]) / 2
		}
	}
	ClampVec(x, lo, hi)
	for i := 0; i < n; i++ {
		ws.held[i] = false
		switch {
		case !(lo[i] < hi[i]): // lo == hi; the box is non-empty
			x[i], st[i] = lo[i], varFixed
		case ata.At(i, i) == 0:
			// Row and column i of a PSD H are zero: the objective is
			// linear in x_i, so its optimum is the bound b_i points to.
			st[i] = varFixed
			switch {
			case atb[i] > 0:
				x[i] = hi[i]
			case atb[i] < 0:
				x[i] = lo[i]
			default:
				x[i] = Clamp(0, lo[i], hi[i])
			}
		case !(x[i] > lo[i]): // at lo, or a NaN start
			x[i], st[i] = lo[i], varLo
		case !(x[i] < hi[i]):
			x[i], st[i] = hi[i], varHi
		default:
			st[i] = varFree
		}
	}

	// released is the variable the last multiplier test freed, until the
	// next free-block solve confirms that it moves into the box.
	released, releasedFrom := -1, varFree
	for {
		free, err := ws.solveFree(ata, atb)
		if err != nil {
			return nil, err
		}
		z := ws.z
		if released >= 0 && ((releasedFrom == varLo && z[released] <= lo[released]) ||
			(releasedFrom == varHi && z[released] >= hi[released])) {
			// The release points straight back out of the box: its
			// multiplier was rounding noise. Keep the bound; x has not
			// moved, so the free block's minimizer is still x.
			st[released] = releasedFrom
			ws.held[released] = true
		} else {
			if released >= 0 {
				for i := range ws.held {
					ws.held[i] = false
				}
			}
			// Ratio test: the first bound met on the segment x → z.
			block, alpha := -1, 1.0
			for _, i := range free {
				var a float64
				switch {
				case z[i] < lo[i]:
					a = (lo[i] - x[i]) / (z[i] - x[i])
				case z[i] > hi[i]:
					a = (hi[i] - x[i]) / (z[i] - x[i])
				default:
					continue
				}
				if block < 0 || a < alpha {
					block, alpha = i, a
				}
			}
			if block >= 0 {
				for _, i := range free {
					x[i] = Clamp(x[i]+alpha*(z[i]-x[i]), lo[i], hi[i])
				}
				if z[block] < lo[block] {
					x[block], st[block] = lo[block], varLo
				} else {
					x[block], st[block] = hi[block], varHi
				}
				released = -1
				if err := ws.countChange(opts); err != nil {
					return nil, err
				}
				continue
			}
			for _, i := range free {
				x[i] = z[i]
			}
		}

		// Multiplier test at the free block's minimizer.
		k := ws.worstMultiplier(ata, atb)
		if k < 0 {
			ws.status.Converged = true
			return x, nil
		}
		released, releasedFrom = k, st[k]
		st[k] = varFree
		if err := ws.countChange(opts); err != nil {
			return nil, err
		}
	}
}

// countChange records one active-set change and fails the solve once the
// cap is passed.
func (ws *BoxLSQWorkspace) countChange(opts BoxLSQOptions) error {
	ws.status.SetChanges++
	if ws.status.SetChanges > opts.MaxSetChanges {
		return ErrNotConverged
	}
	return nil
}

// solveFree factors the free block of h by Cholesky and writes the
// minimizer over the free variables, with every other variable held at its
// current value, into ws.z. It returns the free index list.
func (ws *BoxLSQWorkspace) solveFree(h *Matrix, b []float64) ([]int, error) {
	x, st := ws.x, ws.state
	k := 0
	for i, s := range st {
		if s == varFree {
			ws.free[k] = i
			k++
		}
	}
	free := ws.free[:k]
	if k == 0 {
		return free, nil
	}
	ws.status.Factorizations++

	// Right-hand side b_F − H_FB·x_B.
	y := ws.rhs[:k]
	for r, i := range free {
		s := b[i]
		for j, sj := range st {
			if sj != varFree {
				s -= h.At(i, j) * x[j]
			}
		}
		y[r] = s
	}

	// H_FF = L·Lᵀ, column by column.
	l := ws.l[:k*k]
	for c := 0; c < k; c++ {
		d := h.At(free[c], free[c])
		for p := 0; p < c; p++ {
			d -= l[c*k+p] * l[c*k+p]
		}
		if !(d > 0) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l[c*k+c] = d
		for r := c + 1; r < k; r++ {
			s := h.At(free[r], free[c])
			for p := 0; p < c; p++ {
				s -= l[r*k+p] * l[c*k+p]
			}
			l[r*k+c] = s / d
		}
	}

	// L·y = rhs, then Lᵀ·z = y, both in place.
	for r := 0; r < k; r++ {
		s := y[r]
		for p := 0; p < r; p++ {
			s -= l[r*k+p] * y[p]
		}
		y[r] = s / l[r*k+r]
	}
	for r := k - 1; r >= 0; r-- {
		s := y[r]
		for p := r + 1; p < k; p++ {
			s -= l[p*k+r] * y[p]
		}
		y[r] = s / l[r*k+r]
	}
	for r, i := range free {
		if !finite(y[r]) {
			return nil, ErrNotFinite
		}
		ws.z[i] = y[r]
	}
	return free, nil
}

// worstMultiplier returns the held variable whose multiplier has the wrong
// sign by the most — the gradient (H·x − b)_i must be ≥ 0 at a lower bound
// and ≤ 0 at an upper one — or −1 when every multiplier passes. Held
// bounds, whose release was undone, are skipped.
func (ws *BoxLSQWorkspace) worstMultiplier(h *Matrix, b []float64) int {
	grad := h.MulVecInto(ws.grad, ws.x)
	worst, k := 0.0, -1
	for i, s := range ws.state {
		if (s != varLo && s != varHi) || ws.held[i] {
			continue
		}
		v := grad[i] - b[i]
		if s == varLo {
			v = -v
		}
		if v > worst {
			worst, k = v, i
		}
	}
	return k
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// BoxLSQ solves min_x ||a·x − b||² subject to lo ≤ x ≤ hi element-wise by
// the active-set method of SolveNormal on the normal equations with
// opts.Ridge added. x0 is the starting point and is clamped into the box
// before use; pass nil to start from the box midpoint.
//
// This is the one-shot convenience wrapper: it forms the normal equations
// from the stacked matrix and solves with a fresh workspace. Hot paths
// keep a BoxLSQWorkspace and call SolveNormal to reuse its buffers.
func BoxLSQ(a *Matrix, b, lo, hi, x0 []float64, opts BoxLSQOptions) ([]float64, error) {
	n := a.Cols()
	if len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("linalg: BoxLSQ bound length %d/%d != %d", len(lo), len(hi), n)
	}
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("linalg: BoxLSQ dimension mismatch %d != %d", a.Rows(), len(b))
	}
	ata := NewMatrix(n, n)
	a.MulATAInto(ata)
	atb := make([]float64, n)
	a.MulTVecInto(atb, b)
	x, err := NewBoxLSQWorkspace().SolveNormal(ata, atb, lo, hi, x0, opts)
	if err != nil {
		return nil, err
	}
	return Clone(x), nil
}

// KKTResidual reports how far x is from satisfying the KKT conditions of
// min ||a·x − b||² s.t. lo ≤ x ≤ hi. A small value (≲1e-6 relative to the
// problem scale) certifies optimality; tests use it as the property oracle
// for BoxLSQ.
func KKTResidual(a *Matrix, b, lo, hi, x []float64) float64 {
	r := Sub(a.MulVec(x), b)
	grad := a.Transpose().MulVec(r)
	res := 0.0
	const edge = 1e-9
	for i := range x {
		g := grad[i]
		switch {
		case x[i] <= lo[i]+edge && x[i] >= hi[i]-edge:
			// Degenerate box (lo == hi): any gradient is fine.
		case x[i] <= lo[i]+edge:
			if g < 0 {
				res = math.Max(res, -g)
			}
		case x[i] >= hi[i]-edge:
			if g > 0 {
				res = math.Max(res, g)
			}
		default:
			res = math.Max(res, math.Abs(g))
		}
	}
	return res
}
