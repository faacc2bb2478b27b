package linalg

import "math"

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// NormInf returns the maximum absolute element of v (0 for empty input).
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sub returns a − b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampVec clamps each element of x into [lo[i], hi[i]] in place.
func ClampVec(x, lo, hi []float64) {
	if len(x) != len(lo) || len(x) != len(hi) {
		panic("linalg: ClampVec length mismatch") //lint:allow effects shape guard; mismatched boxes are a programmer error
	}
	for i := range x {
		x[i] = Clamp(x[i], lo[i], hi[i])
	}
}
