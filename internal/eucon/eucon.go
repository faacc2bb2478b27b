// Package eucon implements the inner rate-based control loop of AutoE2E,
// which the paper adopts from EUCON (Lu, Wang, Koutsoukos: "Feedback
// Utilization Control in Distributed Real-Time Systems with End-to-End
// Tasks", IEEE TPDS 2005). It is also the stand-alone rate-only baseline
// the paper compares against.
//
// Each control period the controller:
//
//  1. reads the measured CPU utilization u_j(k) of every ECU from the
//     utilization monitors,
//  2. predicts future utilizations with the linear model
//     u(k+1) = u(k) + F·Δr(k), where F_ji = Σ_{T_il ∈ S_j} c_il·a_il is
//     the estimated load each task places on each ECU per unit rate,
//  3. minimizes the MPC cost of Equation (11) — tracking of an
//     exponential reference trajectory toward the utilization bounds over
//     the prediction horizon P, plus a control penalty over the control
//     horizon M — subject to the rate box [r_min, r_max], and
//  4. applies the first control move Δr(k|k) through the rate modulators
//     (taskmodel.State.SetRate).
//
// Rate saturation — some task rates pinned at their floors while
// utilization still exceeds the bound — is reported to the caller; the
// outer precision-based loop of package precision reacts to it.
//
// # Hot-path structure
//
// The MPC's stacked least-squares problem over x = [Δr_0; …; Δr_{M−1}] has
// P·n tracking rows and M·m control-penalty rows, but its normal equations
// have closed-form block structure (see normalEquations), so Step never
// materializes the stacked matrix: it forms AᵀA and Aᵀb directly in
// O(n·m² + M²·m²) and solves it exactly with a persistent
// linalg.BoxLSQWorkspace: an active-set method on a Cholesky factor of the
// free block, warm-started from the bound pattern of the previous period's
// solution. Consecutive periods mostly share that pattern, so a typical
// solve is one factorization and a multiplier check. The previous solution
// is the only state carried from one solve to the next; the workspace is
// scratch. All scratch lives on the Controller; steady-state Step performs
// zero heap allocations, and SolveStats totals the solver's work.
//
// The test files retain Reference, the allocation-heavy, obviously-correct
// implementation of the same controller; the golden-equivalence tests pin
// the two to bit-identical control sequences over the paper's scenarios.
package eucon

import (
	"fmt"
	"math"

	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Config tunes the MPC.
type Config struct {
	// PredictionHorizon is P in Equation (11). Default 4.
	PredictionHorizon int
	// ControlHorizon is M in Equation (11); must be ≤ PredictionHorizon.
	// Default 2.
	ControlHorizon int
	// RefDecay is the per-period geometric decay of the reference
	// trajectory toward the bound: ref(k+i) = B − RefDecay^i·(B − u(k)).
	// Smaller is more aggressive. Default 0.5.
	RefDecay float64
	// ControlPenalty is the weight ρ of the control-change term. Default
	// 0.1.
	ControlPenalty float64
	// BoundMargin shifts the utilization set-point slightly below the
	// bound (B_j − BoundMargin) so the settled system has schedulable
	// slack. Default 0.
	BoundMargin units.Util
	// OverloadWeight multiplies the tracking-error weight of ECUs whose
	// measured utilization exceeds the set-point. Equation (1) treats the
	// bounds as hard constraints; in the least-squares MPC this asymmetry
	// keeps an over-bound ECU from being traded off against slack
	// elsewhere (rates must come down first). Default 8.
	OverloadWeight float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.PredictionHorizon == 0 {
		c.PredictionHorizon = 4
	}
	if c.ControlHorizon == 0 {
		c.ControlHorizon = 2
	}
	if c.RefDecay == 0 {
		c.RefDecay = 0.5
	}
	if c.ControlPenalty == 0 {
		c.ControlPenalty = 0.1
	}
	if c.OverloadWeight == 0 {
		c.OverloadWeight = 8
	}
	return c
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if c.PredictionHorizon < 1 {
		return fmt.Errorf("eucon: PredictionHorizon = %d, want >= 1", c.PredictionHorizon)
	}
	if c.ControlHorizon < 1 || c.ControlHorizon > c.PredictionHorizon {
		return fmt.Errorf("eucon: ControlHorizon = %d, want in [1, %d]", c.ControlHorizon, c.PredictionHorizon)
	}
	if !taskmodel.Finite(c.RefDecay) || c.RefDecay <= 0 || c.RefDecay >= 1 {
		return fmt.Errorf("eucon: RefDecay = %v, want in (0, 1)", c.RefDecay)
	}
	if !taskmodel.Finite(c.ControlPenalty) || c.ControlPenalty < 0 {
		return fmt.Errorf("eucon: ControlPenalty = %v, want finite >= 0", c.ControlPenalty)
	}
	if !taskmodel.Finite(c.BoundMargin.Float()) || c.BoundMargin < 0 {
		return fmt.Errorf("eucon: BoundMargin = %v, want finite >= 0", c.BoundMargin)
	}
	if !taskmodel.Finite(c.OverloadWeight) || c.OverloadWeight < 1 {
		return fmt.Errorf("eucon: OverloadWeight = %v, want finite >= 1", c.OverloadWeight)
	}
	return nil
}

// Controller is the centralized inner-loop MPC.
type Controller struct {
	state *taskmodel.State
	cfg   Config
	// prevDelta is Δr(k−1), the previously applied move, used by the
	// control-change penalty of Equation (11).
	prevDelta []float64

	// Persistent scratch, sized once in New and reused by every Step.
	f    *linalg.Matrix // n×m load matrix F
	wf   *linalg.Matrix // n×m row-weighted load matrix, wf[j] = w_j·F[j]
	gram *linalg.Matrix // m×m weighted Gram matrix G = wfᵀ·wf
	ata  *linalg.Matrix // (M·m)×(M·m) normal-equation matrix AᵀA
	//lint:sticky scratch, fully rewritten by normalEquations before each solve
	atb []float64 // M·m right-hand side Aᵀb
	//lint:sticky scratch, fully rewritten by normalEquations before each solve
	gb []float64 // m: Σ_j wf[j,t]·(w_j·hb_j)
	//lint:sticky scratch, fully rewritten by normalEquations before each solve
	sums []float64 // M: s_l = Σ_{i>l} (1 − RefDecay^i)
	//lint:sticky scratch, fully rewritten by normalEquations before each solve
	wj []float64 // n: per-ECU tracking weights
	//lint:sticky scratch, fully rewritten by normalEquations before each solve
	wb []float64 // n: w_j·headroom_j
	//lint:sticky box bounds, fully rewritten by Step before each solve
	lo, hi []float64 // M·m box bounds
	//lint:sticky active-set warm start, guarded by warm (Reset clears the flag, not the buffer)
	prevX []float64 // previous full solution, active-set warm start
	warm  bool      // prevX holds a valid previous solution
	//lint:sticky per-solve scratch, rewritten by every SolveNormal before it is read
	ws    *linalg.BoxLSQWorkspace
	stats SolveStats

	// res holds the Result buffers handed back by Step; see Result for the
	// ownership rule.
	res Result
}

// SolveStats totals the inner solver's work since the controller was built
// or last Reset, one count per Step. Every Step that returns without error
// solved its MPC to convergence, so there is no failure count: a solve that
// does not converge fails the Step.
type SolveStats struct {
	// Solves counts MPC solves.
	Solves int
	// Factorizations counts Cholesky factorizations of a free block.
	Factorizations int
	// MaxFactorizations is the most factorizations one solve needed.
	MaxFactorizations int
}

// Reset clears all cross-period state — the previous move Δr(k−1) of the
// control-change penalty, the warm-start solution and the solve totals —
// so the next Step behaves exactly like the first Step of a freshly-built
// controller on the current State.
func (c *Controller) Reset() {
	for i := range c.prevDelta {
		c.prevDelta[i] = 0
	}
	c.warm = false
	c.stats = SolveStats{}
}

// CopyFrom overwrites c's cross-period state — the previous move, the
// warm-start solution and the solve totals — with src's. Everything else
// is structural or per-step scratch, the solver workspace included. Both
// controllers must be built from the same system shape and config; then
// c's next Step is bit-identical to src's next Step. src is only read.
func (c *Controller) CopyFrom(src *Controller) {
	copy(c.prevDelta, src.prevDelta)
	copy(c.prevX, src.prevX)
	c.warm = src.warm
	c.stats = src.stats
}

// SolveStats reports the solver totals since New or the last Reset.
func (c *Controller) SolveStats() SolveStats { return c.stats }

// New builds a controller operating on the given mutable state. It returns
// an error on invalid configuration.
func New(state *taskmodel.State, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sys := state.System()
	n, m, mh := sys.NumECUs, len(sys.Tasks), cfg.ControlHorizon
	cols := mh * m
	return &Controller{
		state:     state,
		cfg:       cfg,
		prevDelta: make([]float64, m),
		f:         linalg.NewMatrix(n, m),
		wf:        linalg.NewMatrix(n, m),
		gram:      linalg.NewMatrix(m, m),
		ata:       linalg.NewMatrix(cols, cols),
		atb:       make([]float64, cols),
		gb:        make([]float64, m),
		sums:      make([]float64, mh),
		wj:        make([]float64, n),
		wb:        make([]float64, n),
		lo:        make([]float64, cols),
		hi:        make([]float64, cols),
		prevX:     make([]float64, cols),
		ws:        linalg.NewBoxLSQWorkspace(),
		res: Result{
			Rates:     make([]units.Rate, m),
			Delta:     make([]units.Rate, m),
			Saturated: make([]bool, m),
		},
	}, nil
}

// Result reports what one control step did.
//
// Ownership: the slices are buffers owned by the controller and are
// overwritten by the next Step (the hot path must not allocate). Callers
// that retain a Result across control periods must copy the slices.
type Result struct {
	// Rates are the applied task rates r(k+1).
	Rates []units.Rate
	// Delta is the applied first move Δr(k|k) before rate clamping.
	Delta []units.Rate
	// Saturated[i] reports that task i's rate is pinned at its floor.
	Saturated []bool
}

// loadMatrixInto fills F: F_ji = Σ_{T_il ∈ S_j} c_il·a_il in seconds, using
// the controller's offline estimates c_il and the current precision ratios.
func loadMatrixInto(f *linalg.Matrix, state *taskmodel.State) {
	f.Zero()
	sys := state.System()
	for ti, task := range sys.Tasks {
		for si := range task.Subtasks {
			sub := &task.Subtasks[si]
			ref := taskmodel.SubtaskRef{Task: taskmodel.TaskID(ti), Index: si}
			f.Add(sub.ECU, ti, sub.NominalExec.Seconds()*state.Ratio(ref).Float())
		}
	}
}

// controlPenaltyRho converts the dimensionless ControlPenalty into the
// row weight √(ρ·mean‖F_col‖²) of the stacked problem. The control-change
// penalty must be dimensionless relative to the tracking term: utilization
// residuals are F·Δr (seconds × Hz) while the raw penalty residuals are Δr
// (Hz). Scaling ρ by the mean squared column norm of F weights the two
// terms on comparable scales regardless of the task set's execution-time
// units.
func controlPenaltyRho(f *linalg.Matrix, controlPenalty float64) float64 {
	n, m := f.Rows(), f.Cols()
	fScale := 0.0
	for ti := 0; ti < m; ti++ {
		col := 0.0
		for j := 0; j < n; j++ {
			col += f.At(j, ti) * f.At(j, ti)
		}
		fScale += col
	}
	fScale /= float64(m)
	return math.Sqrt(controlPenalty * fScale)
}

// normalEquations forms AᵀA and Aᵀb of the stacked MPC least-squares
// problem directly from its block structure, without materializing the
// (P·n + M·m)-row stacked matrix.
//
// The stacked problem over x = [Δr_0; …; Δr_{M−1}] is
//
//	tracking rows (i = 1..P, ECU j):   w_j·F_j·(Σ_{l<min(i,M)} Δr_l) = w_j·(1−δ^i)·h_j
//	penalty rows  (i = 1..M, task t):  ρ·(Δr_{i−1,t} − Δr_{i−2,t})    = [i=1]·ρ·prevΔr_t
//
// with δ = RefDecay, h_j the headroom (target_j − u_j), and Δr_{−1} =
// prevDelta. Because block l appears in tracking row i exactly when l < i
// (l ranges over 0..M−1 ≤ P−1), and its coefficient w_j·F_j does not
// depend on i:
//
//	AᵀA block (l1,l2) = (P − max(l1,l2))·G,  G = Σ_j (w_j F_j)ᵀ(w_j F_j)
//	Aᵀb block l       = s_l·g,  s_l = Σ_{i=l+1..P} (1−δ^i),  g_t = Σ_j w_j F_jt·(w_j h_j)
//
// plus the penalty rows' band: ρ² on the (l,t) diagonal (twice for l < M−1,
// once for l = M−1), −ρ² between adjacent blocks at equal t, and
// ρ²·prevΔr_t added to Aᵀb block 0. Forming G costs O(n·m²) and the block
// fill O(M²·m²) — the stacked product would cost O(P·n·M²·m²).
//
// The reference implementation computes the same formulas with fresh
// allocations and straightforward loops; TestNormalEquationsMatchStacked
// additionally pins them against the explicitly materialized stacked
// matrix.
func normalEquations(c *Controller, utils []units.Util, rho float64) {
	sys := c.state.System()
	n, m := sys.NumECUs, len(sys.Tasks)
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon

	// Per-ECU weights and weighted headrooms.
	for j := 0; j < n; j++ {
		target := sys.UtilBound[j] - c.cfg.BoundMargin
		w := 1.0
		// Over-bound: hard-constraint side of Equation (1). The small
		// tolerance keeps the asymmetry from biasing the settled point
		// below the target when utilization hovers at it.
		if utils[j] > target+0.02 {
			w = c.cfg.OverloadWeight
		}
		c.wj[j] = w
		c.wb[j] = w * utils[j].Headroom(target).Float()
	}

	// Row-weighted load matrix wf[j] = w_j·F[j], its Gram matrix G, and
	// the weighted-headroom image g_t = Σ_j wf[j,t]·wb_j.
	for j := 0; j < n; j++ {
		w := c.wj[j]
		for t := 0; t < m; t++ {
			c.wf.Set(j, t, w*c.f.At(j, t))
		}
	}
	c.wf.MulATAInto(c.gram)
	for t := 0; t < m; t++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += c.wf.At(j, t) * c.wb[j]
		}
		c.gb[t] = s
	}

	// Reference-trajectory weights s_l = Σ_{i=l+1..P} (1 − δ^i).
	for l := 0; l < mh; l++ {
		s := 0.0
		for i := l + 1; i <= p; i++ {
			s += 1 - pow(c.cfg.RefDecay, i)
		}
		c.sums[l] = s
	}

	// Tracking part: block (l1,l2) of AᵀA is (P − max(l1,l2))·G, block l
	// of Aᵀb is s_l·g.
	for l1 := 0; l1 < mh; l1++ {
		for l2 := 0; l2 < mh; l2++ {
			count := p - l1
			if l2 > l1 {
				count = p - l2
			}
			cf := float64(count)
			for t1 := 0; t1 < m; t1++ {
				for t2 := 0; t2 < m; t2++ {
					c.ata.Set(l1*m+t1, l2*m+t2, cf*c.gram.At(t1, t2))
				}
			}
		}
	}
	for l := 0; l < mh; l++ {
		for t := 0; t < m; t++ {
			c.atb[l*m+t] = c.sums[l] * c.gb[t]
		}
	}

	// Control-change penalty band, accumulated row by row as in the
	// stacked formulation.
	rho2 := rho * rho
	for i := 1; i <= mh; i++ {
		for t := 0; t < m; t++ {
			d1 := (i-1)*m + t
			c.ata.Add(d1, d1, rho2)
			if i >= 2 {
				d0 := (i-2)*m + t
				c.ata.Add(d0, d0, rho2)
				c.ata.Add(d1, d0, -rho2)
				c.ata.Add(d0, d1, -rho2)
			} else {
				c.atb[d1] += rho2 * c.prevDelta[t]
			}
		}
	}
}

// formProblem forms the period's MPC problem in the controller's scratch —
// normal equations c.ata/c.atb and box c.lo/c.hi — and returns the warm
// start, nil before the first solve.
func (c *Controller) formProblem(utils []units.Util) []float64 {
	sys := c.state.System()
	m, mh := len(sys.Tasks), c.cfg.ControlHorizon

	loadMatrixInto(c.f, c.state)
	rho := controlPenaltyRho(c.f, c.cfg.ControlPenalty)
	normalEquations(c, utils, rho)

	// Box constraints: the first move must keep every rate inside
	// [floor, max]; later moves get the loose full-range box (they are
	// re-planned next period anyway — standard receding-horizon
	// practice).
	for ti := 0; ti < m; ti++ {
		r := c.state.Rate(taskmodel.TaskID(ti))
		c.lo[ti] = (c.state.RateFloor(taskmodel.TaskID(ti)) - r).Float()
		c.hi[ti] = (sys.Tasks[ti].RateMax - r).Float()
		span := (sys.Tasks[ti].RateMax - sys.Tasks[ti].RateMin).Float()
		for l := 1; l < mh; l++ {
			c.lo[l*m+ti] = -span
			c.hi[l*m+ti] = span
		}
	}

	// Warm start from the previous period's plan: consecutive
	// receding-horizon solutions mostly hold the same rates at their
	// bounds, so the active set usually starts out right.
	if !c.warm {
		return nil
	}
	return c.prevX
}

// Problem returns, as fresh copies, the box-constrained least-squares
// problem the next Step would solve for utils: the normal equations
// without the solver's ridge, the box, and the warm start (nil before the
// first Step). It changes no state. Tests and benchmarks use it to capture
// the solver's real inputs.
func (c *Controller) Problem(utils []units.Util) (ata *linalg.Matrix, atb, lo, hi, x0 []float64, err error) {
	if len(utils) != c.state.System().NumECUs {
		return nil, nil, nil, nil, nil, fmt.Errorf("eucon: got %d utilizations, want %d", len(utils), c.state.System().NumECUs)
	}
	if w := c.formProblem(utils); w != nil {
		x0 = linalg.Clone(w)
	}
	return c.ata.Clone(), linalg.Clone(c.atb), linalg.Clone(c.lo), linalg.Clone(c.hi), x0, nil
}

// Step runs one control period with the measured utilizations and applies
// the resulting rates. len(utils) must equal the number of ECUs.
//
// The returned Result's slices are reused by the next Step; see Result.
//
//lint:certify noalloc,nopanic,deterministic inner MPC period: warm-started active-set solve over preallocated normal equations
func (c *Controller) Step(utils []units.Util) (Result, error) {
	sys := c.state.System()
	n, m := sys.NumECUs, len(sys.Tasks)
	if len(utils) != n {
		return Result{}, fmt.Errorf("eucon: got %d utilizations, want %d", len(utils), n)
	}
	x0 := c.formProblem(utils)
	x, err := c.ws.SolveNormal(c.ata, c.atb, c.lo, c.hi, x0, linalg.DefaultBoxLSQOptions())
	if err != nil {
		return Result{}, fmt.Errorf("eucon: MPC solve: %w", err)
	}
	copy(c.prevX, x)
	c.warm = true
	st := c.ws.Status()
	c.stats.Solves++
	c.stats.Factorizations += st.Factorizations
	if st.Factorizations > c.stats.MaxFactorizations {
		c.stats.MaxFactorizations = st.Factorizations
	}

	res := c.res
	for ti := 0; ti < m; ti++ {
		id := taskmodel.TaskID(ti)
		res.Delta[ti] = units.RawRate(x[ti])
		res.Rates[ti] = c.state.SetRate(id, c.state.Rate(id)+units.RawRate(x[ti]))
		res.Saturated[ti] = c.state.RateSaturated(id, 1e-9)
		c.prevDelta[ti] = x[ti]
	}
	return res, nil
}

func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
