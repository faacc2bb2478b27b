package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: solution recovers the generator.
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := []float64{2, -3}
	x, err := LeastSquares(a, a.MulVec(want), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, want, 1e-9) {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Normal-equations property: aᵀ(a·x − b) = 0 at the optimum.
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8.5}})
	b := []float64{1, -1, 2, 0.5}
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := a.Transpose().MulVec(Sub(a.MulVec(x), b))
	if NormInf(g) > 1e-8 {
		t.Errorf("gradient at optimum = %v", g)
	}
}

func TestLeastSquaresRidgeHandlesRankDeficiency(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}})
	if _, err := LeastSquares(a, []float64{1, 2}, 0); err == nil {
		t.Fatal("rank-deficient system without ridge should error")
	}
	x, err := LeastSquares(a, []float64{1, 2}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum-norm-ish solution splits the load between the two columns.
	if !almostEq(x[0], x[1], 1e-6) {
		t.Errorf("ridge solution asymmetric: %v", x)
	}
}

func TestBoxLSQUnconstrainedInterior(t *testing.T) {
	// With a wide box the solution must match unconstrained least squares.
	a := FromRows([][]float64{{2, 0}, {0, 1}, {1, 1}})
	b := []float64{2, 3, 4}
	want, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo := []float64{-100, -100}
	hi := []float64{100, 100}
	got, err := BoxLSQ(a, b, lo, hi, nil, DefaultBoxLSQOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, want, 1e-6) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBoxLSQActiveBound(t *testing.T) {
	// Unconstrained optimum is x = [1], box forces x ≤ 0.5.
	a := FromRows([][]float64{{1}})
	got, err := BoxLSQ(a, []float64{1}, []float64{0}, []float64{0.5}, nil, DefaultBoxLSQOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got[0], 0.5, 1e-9) {
		t.Errorf("got %v, want 0.5", got[0])
	}
}

func TestBoxLSQDegenerateBox(t *testing.T) {
	// lo == hi pins the variable.
	a := FromRows([][]float64{{1, 1}, {1, -1}})
	got, err := BoxLSQ(a, []float64{10, 0}, []float64{2, -5}, []float64{2, 5}, nil, DefaultBoxLSQOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Errorf("pinned variable moved: %v", got[0])
	}
}

func TestBoxLSQEmptyBoxErrors(t *testing.T) {
	a := FromRows([][]float64{{1}})
	if _, err := BoxLSQ(a, []float64{1}, []float64{1}, []float64{0}, nil, DefaultBoxLSQOptions()); err == nil {
		t.Fatal("empty box did not error")
	}
}

// Property: BoxLSQ results are feasible and KKT-stationary for random
// problems.
func TestBoxLSQKKTProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := pseudo(seed)
		rows := 2 + int(abs64(seed))%5
		cols := 1 + int(abs64(seed/7))%4
		a := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, 2*r())
			}
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = 3 * r()
		}
		lo := make([]float64, cols)
		hi := make([]float64, cols)
		for i := range lo {
			c := r()
			w := math.Abs(r()) + 0.1
			lo[i] = c - w
			hi[i] = c + w
		}
		x, err := BoxLSQ(a, b, lo, hi, nil, DefaultBoxLSQOptions())
		if err != nil {
			return false
		}
		for i := range x {
			if x[i] < lo[i]-1e-12 || x[i] > hi[i]+1e-12 {
				return false
			}
		}
		return KKTResidual(a, b, lo, hi, x) < 1e-4
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
