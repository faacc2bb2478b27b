// Package units defines the three dimensionally distinct quantities of the
// AutoE2E control stack as separate Go types, so that the compiler — and the
// unitsafe analyzer in internal/lint — can reject code that mixes them:
//
//   - Rate is an invocation rate r_i in Hz (Section IV.A): the inner loop's
//     actuator, boxed into [r_min,i, r_max,i];
//   - Util is a CPU-utilization fraction — a measured u_j, an estimated
//     Equation (2) sum, or a bound B_j;
//   - Ratio is an execution-time (computation precision) ratio a_il in
//     [a_min,il, 1] (Section IV.C): the outer loop's actuator.
//
// All three have underlying type float64, so untyped constants still read
// naturally (`RateMax: 100`, `UtilBound: []units.Util{0.7}`) and arithmetic
// *within* one dimension needs no ceremony. Crossing dimensions, however,
// must go through this package: the explicit constructors RawRate / RawUtil /
// RawRatio are the only sanctioned way in from raw float64 (the linalg
// kernel, trace sinks, CSV output), the Float methods are the only way out,
// and the product-type helpers (Load, Rate.MulDuration, Util.Headroom,
// Ratio.Clamp) spell the paper's formulas with their dimensions intact.
// Direct conversions such as float64(r), units.Util(x) or units.Rate(u)
// outside this package are rejected by `autoe2e-lint`'s unitsafe analyzer.
package units

import "github.com/autoe2e/autoe2e/internal/simtime"

// Rate is a task invocation rate r_i in Hz.
type Rate float64

// Util is a CPU-utilization fraction: a measurement u_j, an Equation (2)
// estimate, or a schedulable bound B_j. Nominally in [0, 1].
type Util float64

// Ratio is an execution-time (computation precision) ratio a_il in
// [a_min,il, 1].
type Ratio float64

// RawRate wraps a raw float64 measured in Hz. It is the single sanctioned
// entry point from untyped numeric code (e.g. a linalg solution vector).
func RawRate(x float64) Rate { return Rate(x) }

// RawUtil wraps a raw float64 utilization fraction.
func RawUtil(x float64) Util { return Util(x) }

// RawRatio wraps a raw float64 precision ratio.
func RawRatio(x float64) Ratio { return Ratio(x) }

// Float unwraps the rate to a raw float64 in Hz — the single sanctioned
// exit to untyped numeric code.
func (r Rate) Float() float64 { return float64(r) }

// Float unwraps the utilization fraction to a raw float64.
func (u Util) Float() float64 { return float64(u) }

// Float unwraps the precision ratio to a raw float64.
func (a Ratio) Float() float64 { return float64(a) }

// Period returns the invocation period 1/r. Calling it on a non-positive
// rate panics: a period only exists for a running task.
func (r Rate) Period() simtime.Duration {
	if r <= 0 {
		panic("units: Period of non-positive Rate") //lint:allow effects a stopped task has no period; computing one is a caller bug
	}
	return simtime.FromSeconds(1 / float64(r))
}

// PerPeriod returns the rate whose period is p — the inverse of
// Rate.Period. Having both directions as named operations is what keeps
// rate-vs-period inversions out of call sites.
func PerPeriod(p simtime.Duration) Rate {
	if p <= 0 {
		panic("units: PerPeriod of non-positive Duration")
	}
	return Rate(1 / p.Seconds())
}

// MulDuration returns the utilization contribution of spending c of CPU
// time once per invocation at rate r: r·c (the a_il = 1 case of one
// Equation (2) term).
func (r Rate) MulDuration(c simtime.Duration) Util {
	return Util(float64(r) * c.Seconds())
}

// Scale multiplies the rate by a dimensionless factor.
func (r Rate) Scale(k float64) Rate { return Rate(float64(r) * k) }

// Load evaluates one term of Equation (2): the estimated utilization
// c·a·r a subtask places on its ECU at nominal execution time c, precision
// ratio a and invocation rate r.
func Load(c simtime.Duration, a Ratio, r Rate) Util {
	return Util(c.Seconds() * float64(a) * float64(r))
}

// Headroom returns how far the utilization sits below the bound:
// bound − u. Negative headroom is overload.
func (u Util) Headroom(bound Util) Util { return bound - u }

// Scale multiplies the utilization by a dimensionless factor (e.g. a WCET
// inflation margin).
func (u Util) Scale(k float64) Util { return Util(float64(u) * k) }

// Clamp boxes the ratio into [min, 1] — the Section IV.A constraint
// a_il ∈ [a_min,il, 1].
func (a Ratio) Clamp(min Ratio) Ratio {
	if a < min {
		return min
	}
	if a > 1 {
		return 1
	}
	return a
}

// FloorToGrid floors the ratio onto the discrete grid {k·step}
// (Section IV.E.2's discrete precision options). Flooring only ever
// shortens execution time, so schedulability is preserved. The epsilon
// keeps values that are on the grid up to floating-point error (e.g.
// 0.2+0.2 = 0.4000…04 or 0.3999…97) from dropping a whole step.
func (a Ratio) FloorToGrid(step Ratio) Ratio {
	if step <= 0 {
		return a
	}
	n := float64(a)/float64(step) + 1e-9
	n -= mod1(n)
	return Ratio(n * float64(step))
}

// mod1 returns the fractional part of a non-negative float (x − floor(x))
// without importing math into this leaf package.
func mod1(x float64) float64 {
	return x - float64(int64(x))
}

// Floats unwraps a slice of unit values into raw float64s for the numeric
// boundary (linalg right-hand sides, trace sinks, CSV rows).
func Floats[T ~float64](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// RawUtils wraps a raw float64 slice as utilizations (the monitor/test
// boundary).
func RawUtils(xs []float64) []Util {
	out := make([]Util, len(xs))
	for i, x := range xs {
		out[i] = Util(x)
	}
	return out
}

// RawRates wraps a raw float64 slice as rates (the solver boundary).
func RawRates(xs []float64) []Rate {
	out := make([]Rate, len(xs))
	for i, x := range xs {
		out[i] = Rate(x)
	}
	return out
}
