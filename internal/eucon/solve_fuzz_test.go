package eucon

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// The solver fuzz target decodes a box-constrained QP from bytes:
//
//	[n−1] [flags] A (n×n) b (n) lo (n) width (n) x0 (n)
//
// every number a little-endian float64 (non-finite and below fuzzTiny read
// as 0, so no product reaches the subnormal range; magnitudes capped at
// fuzzMag; bytes past the end read as 0). The problem is
// min ½xᵀHx − bᵀx on lo ≤ x ≤ lo+|width| with H = AᵀA plus a ridge of
// 1e-8 of its largest diagonal entry, so H is positive definite and
// numerically so at every size the decoder produces. flags bit 0 drops the
// warm start. A zero width is a degenerate box.
const (
	fuzzMaxN = 64
	fuzzMag  = 1e6
	fuzzTiny = 1e-100
)

// encodeSolveSeed writes a captured MPC problem in the fuzz layout, with A
// the transposed Cholesky factor of ata, so that AᵀA reproduces ata to
// rounding.
func encodeSolveSeed(t testing.TB, ata *linalg.Matrix, atb, lo, hi, x0 []float64) []byte {
	n := ata.Rows()
	l := linalg.NewMatrix(n, n)
	for c := 0; c < n; c++ {
		d := ata.At(c, c)
		for p := 0; p < c; p++ {
			d -= l.At(c, p) * l.At(c, p)
		}
		if !(d > 0) {
			t.Fatalf("captured normal equations not positive definite at %d", c)
		}
		d = math.Sqrt(d)
		l.Set(c, c, d)
		for r := c + 1; r < n; r++ {
			s := ata.At(r, c)
			for p := 0; p < c; p++ {
				s -= l.At(r, p) * l.At(c, p)
			}
			l.Set(r, c, s/d)
		}
	}
	out := []byte{byte(n - 1), 0}
	if x0 == nil {
		out[1] = 1
		x0 = make([]float64, n)
	}
	put := func(v float64) { out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v)) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			put(l.At(j, i)) // A = Lᵀ
		}
	}
	for _, vs := range [][]float64{atb, lo} {
		for _, v := range vs {
			put(v)
		}
	}
	for i := range lo {
		put(hi[i] - lo[i])
	}
	for _, v := range x0 {
		put(v)
	}
	return out
}

// decodeSolveProblem is the inverse layout; see the constants above.
func decodeSolveProblem(data []byte) (h *linalg.Matrix, b, lo, hi, x0 []float64) {
	if len(data) < 2 {
		data = append([]byte{0, 0}, data...)
	}
	n := int(data[0])%fuzzMaxN + 1
	flags := data[1]
	rest := data[2:]
	next := func() float64 {
		var buf [8]byte
		copy(buf[:], rest)
		if len(rest) >= 8 {
			rest = rest[8:]
		} else {
			rest = nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) < fuzzTiny {
			return 0
		}
		return math.Max(-fuzzMag, math.Min(fuzzMag, v))
	}
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, next())
		}
	}
	h = linalg.NewMatrix(n, n)
	a.MulATAInto(h)
	ridge := 0.0
	for i := 0; i < n; i++ {
		ridge = math.Max(ridge, h.At(i, i))
	}
	ridge = 1e-8 * math.Max(ridge, 1)
	for i := 0; i < n; i++ {
		h.Add(i, i, ridge)
	}
	b, lo, hi, x0 = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = next()
	}
	for i := range lo {
		lo[i] = next()
	}
	for i := range hi {
		hi[i] = lo[i] + math.Abs(next())
	}
	for i := range x0 {
		x0[i] = next()
	}
	if flags&1 != 0 {
		x0 = nil
	}
	return h, b, lo, hi, x0
}

// normalKKT is the KKT residual of x for min ½xᵀHx − bᵀx on [lo, hi],
// relative per coordinate to the magnitude of the gradient's terms,
// Σ_j √(H_ii·H_jj)·|x_j| + |b_i| — the scale a backward-stable Cholesky
// solve's residual is bounded by.
func normalKKT(h *linalg.Matrix, b, lo, hi, x []float64) float64 {
	worst := 0.0
	for i := range x {
		g, scale := -b[i], math.Abs(b[i])
		for j := range x {
			g += h.At(i, j) * x[j]
			scale += math.Sqrt(h.At(i, i)*h.At(j, j)) * math.Abs(x[j])
		}
		var v float64
		switch {
		case lo[i] == hi[i]:
		case x[i] == lo[i]:
			v = math.Max(0, -g)
		case x[i] == hi[i]:
			v = math.Max(0, g)
		default:
			v = math.Abs(g)
		}
		if v > 0 {
			worst = math.Max(worst, v/scale)
		}
	}
	return worst
}

// captureSolveSeeds steps a Controller through each golden scenario and
// captures its normal equations, box and warm start at the first tick, at
// every floor event and at the last tick.
func captureSolveSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, sc := range goldenScenarios {
		st := taskmodel.NewState(sc.mkSys())
		c, err := New(st, sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		byTick := map[int]map[taskmodel.TaskID]units.Rate{}
		for _, ev := range sc.events {
			byTick[ev.tick] = ev.floors
		}
		for k := 0; k < sc.ticks; k++ {
			floors, event := byTick[k]
			for id, f := range floors {
				st.SetRateFloor(id, f)
			}
			utils := st.EstimatedUtilizations()
			if k == 0 || event || k == sc.ticks-1 {
				ata, atb, lo, hi, x0, err := c.Problem(utils)
				if err != nil {
					t.Fatal(err)
				}
				seeds = append(seeds, encodeSolveSeed(t, ata, atb, lo, hi, x0))
			}
			if _, err := c.Step(utils); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seeds
}

// FuzzSolveNormal checks the active-set solver on positive definite box
// QPs: every solve succeeds, and its point is feasible and satisfies the
// KKT conditions to rounding. The seeds are the MPC problems of the three
// golden scenarios.
func FuzzSolveNormal(f *testing.F) {
	for _, seed := range captureSolveSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, b, lo, hi, x0 := decodeSolveProblem(data)
		x, err := linalg.NewBoxLSQWorkspace().SolveNormal(h, b, lo, hi, x0, linalg.BoxLSQOptions{MaxSetChanges: 1000})
		if err != nil {
			t.Fatalf("n = %d: %v", len(b), err)
		}
		for i := range x {
			if !(x[i] >= lo[i] && x[i] <= hi[i]) {
				t.Fatalf("x[%d] = %v outside [%v, %v]", i, x[i], lo[i], hi[i])
			}
		}
		if res := normalKKT(h, b, lo, hi, x); res > 1e-12 {
			t.Fatalf("n = %d: relative KKT residual %v", len(b), res)
		}
	})
}
