// Package stats provides the summary statistics used by the experiment
// harnesses: means, extrema, and error metrics for comparing
// controller trajectories against references.
package stats

import "math"

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Max returns the maximum, or negative infinity for empty input.
func Max(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// Min returns the minimum, or positive infinity for empty input.
func Min(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

// MaxAbs returns the maximum absolute value, or 0 for empty input.
func MaxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// MeanAbs returns the mean absolute value, or 0 for empty input.
func MeanAbs(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s / float64(len(v))
}

// RMS returns the root-mean-square, or 0 for empty input.
func RMS(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s / float64(len(v)))
}

// ApproxEqual reports whether a and b agree within tol, comparing the
// absolute difference for values near zero and the relative difference
// otherwise. It is the comparison the floateq lint analyzer points to:
// controller gains, utilizations, and precision ratios accumulate rounding
// error, so exact == / != on them is almost always a bug.
func ApproxEqual(a, b, tol float64) bool {
	//lint:allow floateq exact shortcut makes equal infinities compare equal
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
