package linalg

import (
	"testing"

	"github.com/autoe2e/autoe2e/internal/simtime"
)

// randomMatrix fills a rows×cols matrix from the deterministic stream,
// zeroing ~30% of entries so the kernels' zero-skip branches are exercised.
func randomMatrix(rng *simtime.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.3 {
				continue
			}
			m.Set(i, j, rng.Uniform(-3, 3))
		}
	}
	return m
}

func randomVec(rng *simtime.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Uniform(-2, 2)
	}
	return v
}

// The in-place kernels must be BIT-identical to their allocating
// counterparts — the golden-equivalence suite in package eucon depends on
// the accumulation orders matching exactly, not just approximately.

func TestMulVecIntoBitIdentical(t *testing.T) {
	rng := simtime.NewRand(1)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomMatrix(rng, rows, cols)
		x := randomVec(rng, cols)
		want := m.MulVec(x)
		dst := make([]float64, rows)
		got := m.MulVecInto(dst, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: MulVecInto[%d] = %v, MulVec %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMulTVecIntoBitIdentical(t *testing.T) {
	rng := simtime.NewRand(2)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomMatrix(rng, rows, cols)
		x := randomVec(rng, rows)
		want := m.Transpose().MulVec(x)
		dst := make([]float64, cols)
		got := m.MulTVecInto(dst, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: MulTVecInto[%d] = %v, Transpose().MulVec %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMulATAIntoBitIdentical(t *testing.T) {
	rng := simtime.NewRand(3)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomMatrix(rng, rows, cols)
		want := m.Transpose().Mul(m)
		got := NewMatrix(cols, cols)
		m.MulATAInto(got)
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("trial %d: MulATAInto[%d,%d] = %v, Transpose().Mul %v",
						trial, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestZero(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Zero()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("Zero left [%d,%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestKernelShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"MulVecInto-x":    func() { m.MulVecInto(make([]float64, 2), make([]float64, 2)) },
		"MulVecInto-dst":  func() { m.MulVecInto(make([]float64, 3), make([]float64, 3)) },
		"MulTVecInto-x":   func() { m.MulTVecInto(make([]float64, 3), make([]float64, 3)) },
		"MulTVecInto-dst": func() { m.MulTVecInto(make([]float64, 2), make([]float64, 2)) },
		"MulATAInto":      func() { m.MulATAInto(NewMatrix(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestSolveNormalMatchesBoxLSQ pins the workspace solver to the one-shot
// wrapper: same normal equations, same solution bits.
func TestSolveNormalMatchesBoxLSQ(t *testing.T) {
	rng := simtime.NewRand(4)
	for trial := 0; trial < 30; trial++ {
		rows, cols := 2+rng.Intn(10), 1+rng.Intn(6)
		a := randomMatrix(rng, rows, cols)
		b := randomVec(rng, rows)
		lo := make([]float64, cols)
		hi := make([]float64, cols)
		for i := range lo {
			lo[i] = rng.Uniform(-2, 0)
			hi[i] = rng.Uniform(0, 2)
		}
		opts := DefaultBoxLSQOptions()
		want, err := BoxLSQ(a, b, lo, hi, nil, opts)
		if err != nil {
			t.Fatal(err)
		}

		ata := NewMatrix(cols, cols)
		a.MulATAInto(ata)
		atb := make([]float64, cols)
		a.MulTVecInto(atb, b)
		got, err := NewBoxLSQWorkspace().SolveNormal(ata, atb, lo, hi, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SolveNormal[%d] = %v, BoxLSQ %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSolveNormalWarmStartStillOptimal checks that reusing a workspace
// (warm eigenvector + warm x0) across repeated solves of drifting problems
// keeps returning KKT-certified optima.
func TestSolveNormalWarmStartStillOptimal(t *testing.T) {
	rng := simtime.NewRand(5)
	const rows, cols = 9, 4
	ws := NewBoxLSQWorkspace()
	var prev []float64
	for step := 0; step < 20; step++ {
		a := randomMatrix(rng, rows, cols)
		b := randomVec(rng, rows)
		lo := []float64{-1, -1, -1, -1}
		hi := []float64{1, 1, 1, 1}
		ata := NewMatrix(cols, cols)
		a.MulATAInto(ata)
		atb := make([]float64, cols)
		a.MulTVecInto(atb, b)
		x, err := ws.SolveNormal(ata, atb, lo, hi, prev, DefaultBoxLSQOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res := KKTResidual(a, b, lo, hi, x); res > 1e-4 {
			t.Fatalf("step %d: warm-started solve KKT residual %v", step, res)
		}
		prev = Clone(x)
	}
}

// TestSolveNormalZeroAlloc is the kernel-level zero-allocation gate: after
// the first solve sizes the workspace, repeated solves must not allocate.
func TestSolveNormalZeroAlloc(t *testing.T) {
	rng := simtime.NewRand(6)
	const rows, cols = 10, 5
	a := randomMatrix(rng, rows, cols)
	b := randomVec(rng, rows)
	lo := make([]float64, cols)
	hi := make([]float64, cols)
	for i := range lo {
		lo[i], hi[i] = -1, 1
	}
	ata := NewMatrix(cols, cols)
	atb := make([]float64, cols)
	ws := NewBoxLSQWorkspace()
	solve := func() {
		a.MulATAInto(ata)
		a.MulTVecInto(atb, b)
		if _, err := ws.SolveNormal(ata, atb, lo, hi, nil, DefaultBoxLSQOptions()); err != nil {
			t.Fatal(err)
		}
	}
	solve() // size the workspace
	if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
		t.Fatalf("warmed SolveNormal allocates %v times per run, want 0", allocs)
	}
}

// TestSolveNormalDegenerateZeroMatrix covers the lip <= 0 path: every
// feasible point is optimal, and the returned point is the clamped origin.
func TestSolveNormalDegenerateZeroMatrix(t *testing.T) {
	const n = 3
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	lo := []float64{-1, 0.5, -2}
	hi := []float64{1, 2, -0.5}
	x, err := NewBoxLSQWorkspace().SolveNormal(ata, atb, lo, hi, nil, BoxLSQOptions{MaxSetChanges: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, -0.5}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}
