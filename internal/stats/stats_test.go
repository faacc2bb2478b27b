package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty Mean != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestExtrema(t *testing.T) {
	v := []float64{3, -7, 2}
	if Max(v) != 3 || Min(v) != -7 || MaxAbs(v) != 7 {
		t.Errorf("Max/Min/MaxAbs = %v/%v/%v", Max(v), Min(v), MaxAbs(v))
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("empty extrema wrong")
	}
	if MaxAbs(nil) != 0 {
		t.Error("empty MaxAbs != 0")
	}
}

func TestMeanAbsAndRMS(t *testing.T) {
	v := []float64{3, -4}
	if got := MeanAbs(v); got != 3.5 {
		t.Errorf("MeanAbs = %v", got)
	}
	if got := RMS(v); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", got)
	}
	if MeanAbs(nil) != 0 || RMS(nil) != 0 {
		t.Error("empty MeanAbs/RMS != 0")
	}
}

// Property: Min ≤ Mean ≤ Max.
func TestOrderingProperty(t *testing.T) {
	if err := quick.Check(func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			v[i] = float64(x)
		}
		m := Mean(v)
		return Min(v) <= m+1e-9 && m <= Max(v)+1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		name      string
		a, b, tol float64
		want      bool
	}{
		{"exact", 1.5, 1.5, 1e-9, true},
		{"within absolute tol near zero", 1e-12, -1e-12, 1e-9, true},
		{"within relative tol when large", 1e9, 1e9 * (1 + 1e-10), 1e-9, true},
		{"outside tol", 1.0, 1.001, 1e-9, false},
		{"accumulated rounding", 0.1 + 0.2, 0.3, 1e-12, true},
		{"nan never equal", math.NaN(), math.NaN(), 1e-9, false},
		{"inf equal to itself", math.Inf(1), math.Inf(1), 1e-9, true},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("%s: ApproxEqual(%v, %v, %v) = %v, want %v", c.name, c.a, c.b, c.tol, got, c.want)
		}
	}
}
