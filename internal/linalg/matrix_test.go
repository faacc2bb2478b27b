package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Errorf("Set failed: %v", m.At(1, 0))
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases original")
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := a.MulVec([]float64{1, -1})
	if !vecAlmostEq(got, []float64{-1, -1, -1}, 0) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 {
		t.Errorf("Transpose wrong: %v", at)
	}
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{2, -1}, {0.5, 3}})
	got := Identity(2).Mul(a)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != a.At(i, j) {
				t.Fatal("I·A != A")
			}
		}
	}
}

func TestSolveLUKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLU(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{2, 3, -1}, 1e-10) {
		t.Errorf("x = %v, want [2 3 -1]", x)
	}
}

func TestSolveLUNeedsPivot(t *testing.T) {
	// Zero diagonal forces a pivot swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveLU(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{5, 3}, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system did not error")
	}
}

func TestSolveLUDoesNotMutate(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	if _, err := SolveLU(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 || b[0] != 1 {
		t.Error("SolveLU mutated its inputs")
	}
}

// Property: for random well-conditioned systems, SolveLU(a, a·x) ≈ x.
func TestSolveLURoundTrip(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := pseudo(seed)
		n := 1 + int(abs64(seed))%6
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r())
			}
			a.Add(i, i, float64(n)) // diagonal dominance => well-conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r()
		}
		got, err := SolveLU(a, a.MulVec(x))
		if err != nil {
			return false
		}
		return vecAlmostEq(got, x, 1e-8)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2 wrong")
	}
	if NormInf([]float64{1, -7, 3}) != 7 {
		t.Error("NormInf wrong")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

// pseudo returns a cheap deterministic float generator in [-1, 1] for
// property tests without importing math/rand in this package's tests.
func pseudo(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000001)-1000000) / 1000000
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestShapePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"NewMatrix zero", func() { NewMatrix(0, 3) }},
		{"FromRows empty", func() { FromRows(nil) }},
		{"FromRows ragged", func() { FromRows([][]float64{{1, 2}, {3}}) }},
		{"Mul mismatch", func() { NewMatrix(2, 3).Mul(NewMatrix(2, 3)) }},
		{"MulVec mismatch", func() { NewMatrix(2, 3).MulVec([]float64{1}) }},
		{"Dot mismatch", func() { Dot([]float64{1}, []float64{1, 2}) }},
		{"Sub mismatch", func() { Sub([]float64{1}, []float64{1, 2}) }},
		{"ClampVec mismatch", func() { ClampVec([]float64{1}, []float64{0, 0}, []float64{1, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSolveLUErrors(t *testing.T) {
	if _, err := SolveLU(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := SolveLU(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1}, 0); err == nil {
		t.Error("LeastSquares mismatch accepted")
	}
	a := NewMatrix(2, 2)
	if _, err := BoxLSQ(a, []float64{1}, []float64{0, 0}, []float64{1, 1}, nil, DefaultBoxLSQOptions()); err == nil {
		t.Error("BoxLSQ rhs mismatch accepted")
	}
	if _, err := BoxLSQ(a, []float64{1, 1}, []float64{0}, []float64{1, 1}, nil, DefaultBoxLSQOptions()); err == nil {
		t.Error("BoxLSQ bound mismatch accepted")
	}
	if _, err := BoxLSQ(a, []float64{1, 1}, []float64{0, 0}, []float64{1, 1}, []float64{0}, DefaultBoxLSQOptions()); err == nil {
		t.Error("BoxLSQ x0 mismatch accepted")
	}
}
