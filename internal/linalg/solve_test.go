package linalg

import (
	"errors"
	"math"
	"testing"

	"github.com/autoe2e/autoe2e/internal/simtime"
)

// quadObjective is ½xᵀHx − bᵀx and the magnitude of its terms,
// ½|x|ᵀ|H||x| + |b|ᵀ|x|, against which rounding is measured.
func quadObjective(h *Matrix, b, x []float64) (f, scale float64) {
	for i := range x {
		for j := range x {
			f += 0.5 * x[i] * h.At(i, j) * x[j]
			scale += 0.5 * math.Abs(x[i]*h.At(i, j)*x[j])
		}
		f -= b[i] * x[i]
		scale += math.Abs(b[i] * x[i])
	}
	return f, scale
}

// bruteForceBox is the oracle for small box QPs min ½xᵀHx − bᵀx on
// [lo, hi]: it tries every lower/free/upper pattern, solves the free block
// with the rest at their bounds (LU, independent of the solver's Cholesky),
// and keeps the feasible candidate of least objective. The optimum is the
// free-block minimizer of its own pattern, so it is among the candidates.
// Coordinates with lo == hi only take their single value.
func bruteForceBox(t *testing.T, h *Matrix, b, lo, hi []float64) []float64 {
	t.Helper()
	n := len(b)
	if n > 6 {
		t.Fatalf("brute force over 3^%d patterns", n)
	}
	patterns := 1
	for i := 0; i < n; i++ {
		patterns *= 3
	}
	var best []float64
	bestF := math.Inf(1)
	for p := 0; p < patterns; p++ {
		x := make([]float64, n)
		var free []int
		code, skip := p, false
		for i := 0; i < n; i++ {
			switch code % 3 {
			case 0:
				x[i] = lo[i]
			case 1:
				x[i] = hi[i]
				skip = skip || lo[i] == hi[i]
			case 2:
				free = append(free, i)
				skip = skip || lo[i] == hi[i]
			}
			code /= 3
		}
		if skip {
			continue
		}
		if len(free) > 0 {
			hff := NewMatrix(len(free), len(free))
			rhs := make([]float64, len(free))
			for r, i := range free {
				rhs[r] = b[i]
				for j := 0; j < n; j++ {
					if !containsInt(free, j) {
						rhs[r] -= h.At(i, j) * x[j]
					}
				}
				for c, j := range free {
					hff.Set(r, c, h.At(i, j))
				}
			}
			z, err := SolveLU(hff, rhs)
			if err != nil {
				continue
			}
			feasible := true
			for r, i := range free {
				edge := 1e-9 * (hi[i] - lo[i])
				if z[r] < lo[i]-edge || z[r] > hi[i]+edge {
					feasible = false
				}
				x[i] = Clamp(z[r], lo[i], hi[i])
			}
			if !feasible {
				continue
			}
		}
		if f, _ := quadObjective(h, b, x); f < bestF {
			best, bestF = x, f
		}
	}
	return best
}

func containsInt(s []int, v int) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// TestSolveNormalMatchesBruteForce checks the active-set solver against the
// pattern-enumeration oracle on random problems up to n = 6: degenerate
// boxes, rank-deficient aᵀa held up only by the ridge, and warm starts from
// nil, interior, outside and at-bound points, all through one reused
// workspace so dimension changes are covered too. The objectives must agree
// to rounding.
func TestSolveNormalMatchesBruteForce(t *testing.T) {
	rng := simtime.NewRand(17)
	ws := NewBoxLSQWorkspace()
	opts := DefaultBoxLSQOptions()
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(6)
		rows := 1 + rng.Intn(8)
		a := randomMatrix(rng, rows, n)
		if n >= 2 && rng.Float64() < 0.3 {
			// Duplicate a column: aᵀa is singular, the ridge alone makes
			// the problem strictly convex.
			src, dst := rng.Intn(n), rng.Intn(n)
			for r := 0; r < rows; r++ {
				a.Set(r, dst, a.At(r, src))
			}
		}
		bs := randomVec(rng, rows)
		lo, hi := make([]float64, n), make([]float64, n)
		for i := range lo {
			lo[i] = rng.Uniform(-2, 1)
			hi[i] = lo[i] + rng.Uniform(0, 3)
			if rng.Float64() < 0.15 {
				hi[i] = lo[i]
			}
		}
		var x0 []float64
		switch trial % 4 {
		case 1:
			x0 = make([]float64, n)
			for i := range x0 {
				x0[i] = rng.Uniform(lo[i], hi[i])
			}
		case 2:
			x0 = randomVec(rng, n)
			for i := range x0 {
				x0[i] *= 3
			}
		case 3:
			x0 = make([]float64, n)
			for i := range x0 {
				x0[i] = lo[i]
				if rng.Float64() < 0.5 {
					x0[i] = hi[i]
				}
			}
		}

		ata := NewMatrix(n, n)
		a.MulATAInto(ata)
		atb := make([]float64, n)
		a.MulTVecInto(atb, bs)
		h := ata.Clone()
		for i := 0; i < n; i++ {
			h.Add(i, i, opts.Ridge)
		}
		want := bruteForceBox(t, h, atb, lo, hi)

		x, err := ws.SolveNormal(ata, atb, lo, hi, x0, opts)
		if err != nil {
			t.Fatalf("trial %d (n = %d): %v", trial, n, err)
		}
		if st := ws.Status(); !st.Converged || st.SetChanges > opts.MaxSetChanges {
			t.Fatalf("trial %d: status %+v", trial, st)
		}
		for i := range x {
			if x[i] < lo[i] || x[i] > hi[i] {
				t.Fatalf("trial %d: x[%d] = %v outside [%v, %v]", trial, i, x[i], lo[i], hi[i])
			}
		}
		got, scale := quadObjective(h, atb, x)
		best, bestScale := quadObjective(h, atb, want)
		if tol := 1e-12 * math.Max(scale, bestScale); math.Abs(got-best) > tol {
			t.Fatalf("trial %d (n = %d, x0 mode %d): objective %v, brute force %v (diff %v > %v)\n x = %v\n want %v",
				trial, n, trial%4, got, best, got-best, tol, x, want)
		}
	}
}

// TestSolveNormalWarmStartPattern checks that a warm start whose bound
// pattern is already optimal costs one factorization and no set change —
// the steady state of the controller — and that a start with the wrong
// pattern still reaches the same point.
func TestSolveNormalWarmStartPattern(t *testing.T) {
	// H = I, b = (3, −3, 0.5) on [0, 1]³: x* = (1, 0, 0.5), upper, lower
	// and free.
	mk := func() (*Matrix, []float64) { return Identity(3), []float64{3, -3, 0.5} }
	lo, hi := []float64{0, 0, 0}, []float64{1, 1, 1}
	ws := NewBoxLSQWorkspace()
	opts := BoxLSQOptions{MaxSetChanges: 10}

	h, b := mk()
	x, err := ws.SolveNormal(h, b, lo, hi, []float64{1, 0, 0.2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := ws.Status(); st != (SolveStatus{Factorizations: 1, Converged: true}) {
		t.Fatalf("right pattern: status %+v, want one factorization, no set change", st)
	}
	if !vecAlmostEq(x, []float64{1, 0, 0.5}, 0) {
		t.Fatalf("x = %v", x)
	}

	h, b = mk()
	x, err = ws.SolveNormal(h, b, lo, hi, []float64{0, 1, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := ws.Status(); !st.Converged || st.SetChanges == 0 {
		t.Fatalf("wrong pattern: status %+v, want set changes", st)
	}
	if !vecAlmostEq(x, []float64{1, 0, 0.5}, 0) {
		t.Fatalf("x = %v", x)
	}
}

// TestSolveNormalDecoupledCoordinate covers a coordinate H does not couple
// at all: the objective is linear in it, so it sits at the bound b points
// to, and the rest is solved as usual.
func TestSolveNormalDecoupledCoordinate(t *testing.T) {
	h := FromRows([][]float64{{2, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	x, err := NewBoxLSQWorkspace().SolveNormal(h, []float64{1, -4, 5}, []float64{-1, -2, -3}, []float64{1, 2, 3}, nil, BoxLSQOptions{MaxSetChanges: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.5, -2, 3}; !vecAlmostEq(x, want, 1e-15) {
		t.Fatalf("x = %v, want %v", x, want)
	}
}

// TestSolveNormalNaNWarmStart: a non-finite warm-start entry starts at its
// lower bound instead of poisoning the solve.
func TestSolveNormalNaNWarmStart(t *testing.T) {
	x, err := NewBoxLSQWorkspace().SolveNormal(Identity(2), []float64{0.5, 2}, []float64{0, 0}, []float64{1, 1}, []float64{math.NaN(), math.Inf(1)}, DefaultBoxLSQOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.5, 1}; !vecAlmostEq(x, want, 1e-8) {
		t.Fatalf("x = %v, want %v", x, want)
	}
}

// TestSolveNormalErrors: the solver reports each failure instead of
// returning a point.
func TestSolveNormalErrors(t *testing.T) {
	box := func(n int) ([]float64, []float64) {
		lo, hi := make([]float64, n), make([]float64, n)
		for i := range lo {
			lo[i], hi[i] = -10, 10
		}
		return lo, hi
	}
	lo, hi := box(2)
	opts := BoxLSQOptions{MaxSetChanges: 10}
	for _, tc := range []struct {
		name string
		h    *Matrix
		b    []float64
		lo   []float64
		want error
	}{
		{"NaN in b", Identity(2), []float64{math.NaN(), 0}, lo, ErrNotFinite},
		{"Inf in H", FromRows([][]float64{{1, math.Inf(1)}, {math.Inf(1), 1}}), []float64{0, 0}, lo, ErrNotFinite},
		{"NaN bound", Identity(2), []float64{0, 0}, []float64{math.NaN(), -10}, nil},
		{"indefinite", FromRows([][]float64{{1, 2}, {2, 1}}), []float64{0.1, 0.1}, lo, ErrNotPositiveDefinite},
	} {
		_, err := NewBoxLSQWorkspace().SolveNormal(tc.h, tc.b, tc.lo, hi, nil, opts)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Reaching the optimum from the all-upper start releases both bounds;
	// a cap of one change stops it.
	ws := NewBoxLSQWorkspace()
	lo3, hi3 := []float64{0, 0}, []float64{1, 1}
	if _, err := ws.SolveNormal(Identity(2), []float64{0.5, 0.5}, lo3, hi3, []float64{1, 1}, BoxLSQOptions{MaxSetChanges: 1}); !errors.Is(err, ErrNotConverged) {
		t.Errorf("capped solve: err = %v, want ErrNotConverged", err)
	}
	if ws.Status().Converged {
		t.Error("capped solve reports Converged")
	}
}

// TestSolveNormalZeroMultipliers covers degenerate optima: b = H·x* with
// some x* coordinates on a bound, so those multipliers are zero and their
// computed values are rounding noise of either sign. Releasing such a
// bound moves its variable straight back out of the box; without undoing
// that release the solve cycles until the cap. Every solve must converge
// to x* (objective to rounding).
func TestSolveNormalZeroMultipliers(t *testing.T) {
	rng := simtime.NewRand(5)
	ws := NewBoxLSQWorkspace()
	opts := BoxLSQOptions{MaxSetChanges: 200}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(4)
		a := randomMatrix(rng, n+1, n)
		h := NewMatrix(n, n)
		a.MulATAInto(h)
		for i := 0; i < n; i++ {
			h.Add(i, i, 1e-3)
		}
		xs, lo, hi, x0 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range xs {
			hi[i] = 1
			switch rng.Intn(3) {
			case 0:
			case 1:
				xs[i] = 1
			default:
				xs[i] = rng.Float64()
			}
			x0[i] = float64(rng.Intn(2))
		}
		b := h.MulVec(xs)
		x, err := ws.SolveNormal(h.Clone(), b, lo, hi, x0, opts)
		if err != nil {
			t.Fatalf("trial %d (n = %d): %v", trial, n, err)
		}
		got, scale := quadObjective(h, b, x)
		want, _ := quadObjective(h, b, xs)
		if math.Abs(got-want) > 1e-12*scale {
			t.Fatalf("trial %d: objective %v, optimum %v; x = %v, x* = %v", trial, got, want, x, xs)
		}
	}
}

// TestSolveNormalFirstBlockingBound pins the path of one coupled problem
// from the box midpoint: each step stops at the first bound the segment to
// the free-block minimizer meets and holds that one variable, so it takes
// three set changes and four factorizations. (A step that ran on to a
// later bound and clamped the rest would take a different path, and loses
// the guarantee that every step decreases the objective.)
func TestSolveNormalFirstBlockingBound(t *testing.T) {
	h := FromRows([][]float64{{20, 5, 5}, {5, 18, -6}, {5, -6, 6}})
	b := []float64{-4, -4, 4}
	lo, hi := []float64{0, 0, 0}, []float64{1, 1, 1}
	ws := NewBoxLSQWorkspace()
	x, err := ws.SolveNormal(h.Clone(), b, lo, hi, nil, BoxLSQOptions{MaxSetChanges: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st := ws.Status(); st != (SolveStatus{Factorizations: 4, SetChanges: 3, Converged: true}) {
		t.Errorf("status %+v, want 4 factorizations and 3 set changes", st)
	}
	want := bruteForceBox(t, h, b, lo, hi)
	if !vecAlmostEq(x, want, 1e-12) {
		t.Errorf("x = %v, brute force %v", x, want)
	}
}
