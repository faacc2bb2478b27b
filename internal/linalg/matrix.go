// Package linalg provides the small dense linear-algebra kernel used by the
// model-predictive controllers in this repository: vectors, row-major
// matrices, LU factorization, and least-squares solvers (unconstrained and
// box-constrained).
//
// The paper's EUCON inner loop (Lu et al. 2005) solves a constrained
// least-squares problem each control period with MATLAB's lsqlin, an
// active-set solver; this package is the stdlib-only replacement. Its box
// solver (BoxLSQWorkspace.SolveNormal) is an exact primal active-set
// method on a Cholesky factor of the free block, which ends with the KKT
// conditions met to rounding or reports an error, never an approximate
// point. Sizes are tiny (tens of rows), so the implementation favours
// clarity and numerical robustness over blocking or SIMD.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution at
// working precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// non-positive dimensions, which always indicate a programming error in the
// caller.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows reports the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Zero sets every element to zero, keeping the shape. Persistent scratch
// matrices on the controller hot path are recycled with Zero instead of
// being reallocated each control period.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.Add(i, j, a*b.At(k, j))
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d · %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecInto computes dst = m·x without allocating, returning dst. dst and
// x must not alias. It is the in-place counterpart of MulVec, with the same
// accumulation order (columns ascending per row), so the two produce
// bit-identical results.
func (m *Matrix) MulVecInto(dst, x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVecInto shape mismatch %dx%d · %d", m.rows, m.cols, len(x))) //lint:allow effects shape guard: boxing only on the panic path, and a shape mismatch is a programmer error
	}
	if m.rows != len(dst) {
		panic(fmt.Sprintf("linalg: MulVecInto dst length %d != %d rows", len(dst), m.rows)) //lint:allow effects shape guard: boxing only on the panic path, and a shape mismatch is a programmer error
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulTVecInto computes dst = mᵀ·x without allocating or materializing the
// transpose, returning dst. len(dst) must equal Cols and len(x) must equal
// Rows. The accumulation order per entry is rows ascending, matching
// Transpose().MulVec(x) bit for bit.
func (m *Matrix) MulTVecInto(dst, x []float64) []float64 {
	if m.rows != len(x) {
		panic(fmt.Sprintf("linalg: MulTVecInto shape mismatch %dx%dᵀ · %d", m.rows, m.cols, len(x)))
	}
	if m.cols != len(dst) {
		panic(fmt.Sprintf("linalg: MulTVecInto dst length %d != %d cols", len(dst), m.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		xi := x[i]
		for j, a := range row {
			dst[j] += a * xi
		}
	}
	return dst
}

// MulATAInto computes dst = mᵀ·m (the Gram matrix of the columns) without
// materializing the transpose. dst must be Cols×Cols. Each entry accumulates
// over rows in ascending order — the same order as Transpose().Mul(m) — so
// the two are bit-identical; tests pin that equivalence. The normal-equation
// construction of the MPC hot path is built on this kernel.
func (m *Matrix) MulATAInto(dst *Matrix) *Matrix {
	if dst.rows != m.cols || dst.cols != m.cols {
		panic(fmt.Sprintf("linalg: MulATAInto dst shape %dx%d, want %dx%d", dst.rows, dst.cols, m.cols, m.cols)) //lint:allow effects shape guard: boxing only on the panic path, and a shape mismatch is a programmer error
	}
	dst.Zero()
	n := m.cols
	for r := 0; r < m.rows; r++ {
		row := m.data[r*n : (r+1)*n]
		for t1, a := range row {
			if a == 0 {
				continue
			}
			out := dst.data[t1*n : (t1+1)*n]
			for t2, b := range row {
				out[t2] += a * b
			}
		}
	}
	return dst
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// SolveLU solves the square system a·x = b using LU factorization with
// partial pivoting. a and b are left unmodified.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: SolveLU on non-square %dx%d matrix", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("linalg: SolveLU dimension mismatch %d != %d", a.rows, len(b))
	}
	n := a.rows
	lu := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at/below diagonal.
		pivot, pivotVal := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > pivotVal {
				pivot, pivotVal = r, v
			}
		}
		if pivotVal < 1e-13 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu.data[col*n+j], lu.data[pivot*n+j] = lu.data[pivot*n+j], lu.data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			if f == 0 {
				continue
			}
			lu.Set(r, col, f)
			for j := col + 1; j < n; j++ {
				lu.Add(r, j, -f*lu.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu.At(i, j) * x[j]
		}
		x[i] = s / lu.At(i, i)
	}
	return x, nil
}
