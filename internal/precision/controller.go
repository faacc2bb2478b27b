package precision

import (
	"fmt"

	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Config tunes the outer loop.
type Config struct {
	// SaturationThreshold is how far above its bound an ECU's settled
	// utilization must sit to count toward saturation. Default 0.02.
	SaturationThreshold units.Util
	// SaturationPeriods is how many consecutive inner periods must
	// violate before the outer loop acts. Default 3.
	SaturationPeriods int
	// ReclaimMargin is added to the utilization error when reducing
	// ratios, leaving slack so the inner controller settles at rates
	// slightly above the floors rather than on the edge of saturation
	// (Section IV.C.1's "margin for variance tolerance"). Default 0.03.
	ReclaimMargin units.Util
	// RestoreLeeway is the relative rate-floor drop that activates the
	// computation precision restorer, so it does not chase small r_min
	// fluctuations (Section IV.C.3's "leeway"). Default 0.1.
	RestoreLeeway float64
	// RestoreSlack keeps restored utilization this far below the bound so
	// the refill itself cannot cause misses (contrast with the Direct
	// Increase baseline's peaks in Figure 9(b)). Default 0.05.
	RestoreSlack units.Util
	// RestoreEpsilon ends a restoration once a bisection round refills
	// less than this much estimated utilization across all ECUs — the
	// point of diminishing returns where the rates have effectively
	// reached their floors. Default 0.01.
	RestoreEpsilon units.Util
}

func (c Config) withDefaults() Config {
	if c.SaturationThreshold == 0 {
		c.SaturationThreshold = 0.02
	}
	if c.SaturationPeriods == 0 {
		c.SaturationPeriods = 3
	}
	if c.ReclaimMargin == 0 {
		c.ReclaimMargin = 0.03
	}
	if c.RestoreLeeway == 0 {
		c.RestoreLeeway = 0.1
	}
	if c.RestoreSlack == 0 {
		c.RestoreSlack = 0.05
	}
	if c.RestoreEpsilon == 0 {
		c.RestoreEpsilon = 0.01
	}
	return c
}

func (c Config) validate() error {
	if !taskmodel.Finite(c.SaturationThreshold.Float()) || c.SaturationThreshold < 0 {
		return fmt.Errorf("precision: SaturationThreshold = %v, want finite >= 0", c.SaturationThreshold)
	}
	if c.SaturationPeriods < 1 {
		return fmt.Errorf("precision: SaturationPeriods = %d, want >= 1", c.SaturationPeriods)
	}
	if !taskmodel.Finite(c.ReclaimMargin.Float()) || c.ReclaimMargin < 0 {
		return fmt.Errorf("precision: ReclaimMargin = %v, want finite >= 0", c.ReclaimMargin)
	}
	if !taskmodel.Finite(c.RestoreLeeway) || c.RestoreLeeway < 0 {
		return fmt.Errorf("precision: RestoreLeeway = %v, want finite >= 0", c.RestoreLeeway)
	}
	if !taskmodel.Finite(c.RestoreSlack.Float()) || c.RestoreSlack < 0 {
		return fmt.Errorf("precision: RestoreSlack = %v, want finite >= 0", c.RestoreSlack)
	}
	if !taskmodel.Finite(c.RestoreEpsilon.Float()) || c.RestoreEpsilon < 0 {
		return fmt.Errorf("precision: RestoreEpsilon = %v, want finite >= 0", c.RestoreEpsilon)
	}
	return nil
}

// restorePhase is the state of Algorithm 1.
type restorePhase int

const (
	restoreIdle restorePhase = iota
	restoreRounds
)

// Controller is the outer precision-based control loop: one logical
// instance per system, balancing each ECU independently (changing a_il on
// one ECU does not affect others — Section IV.C.1).
type Controller struct {
	state *taskmodel.State
	cfg   Config
	det   *Detector

	phase      restorePhase
	prevFloors []units.Rate
	// dropPending latches an observed rate-floor drop until the restorer
	// can act on it.
	dropPending bool
	// restoreRoundCount counts bisection rounds of the current
	// restoration, for observability (the paper reports two rounds are
	// usually sufficient).
	restoreRoundCount int

	// ws is the reusable knapsack scratch shared by the reclaim and
	// restore paths.
	ws Workspace

	// res holds the Result buffers handed back by Step; see Result for
	// the ownership rule.
	res Result
}

// New builds the outer controller bound to the shared operating point.
func New(state *taskmodel.State, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sys := state.System()
	floors := make([]units.Rate, len(sys.Tasks))
	for i := range floors {
		floors[i] = state.RateFloor(taskmodel.TaskID(i))
	}
	return &Controller{
		state:      state,
		cfg:        cfg,
		det:        NewDetector(sys.NumECUs, cfg.SaturationThreshold, cfg.SaturationPeriods),
		prevFloors: floors,
		res: Result{
			Reclaimed: make([]units.Util, sys.NumECUs),
			Restored:  make([]units.Util, sys.NumECUs),
		},
	}, nil
}

// ObserveInner feeds one inner-period utilization sample to the saturation
// detector. The coordinator calls it every inner control period.
func (o *Controller) ObserveInner(utils []units.Util) {
	o.det.Observe(utils, o.state.System().UtilBound)
}

// Result reports what one outer control period did, for tracing.
//
// Ownership: the slices are buffers owned by the controller and are
// overwritten by the next Step (the control hot path must not allocate).
// Callers that retain a Result across control periods must copy the
// slices.
type Result struct {
	// Reclaimed is the estimated utilization shed per ECU by ratio
	// decreases (saturation prevention).
	Reclaimed []units.Util
	// Restored is the estimated utilization refilled per ECU by ratio
	// increases (restoration).
	Restored []units.Util
	// RestoreRound is non-zero when a restorer bisection round ran this
	// period (1-based round number).
	RestoreRound int
	// RestoreDone reports that a restoration finished this period (all
	// ratios back to one, or terminated by saturation).
	RestoreDone bool
}

// Step runs one outer control period. utils are the latest settled
// utilization measurements (one per ECU).
func (o *Controller) Step(utils []units.Util) (Result, error) {
	sys := o.state.System()
	if len(utils) != sys.NumECUs {
		return Result{}, fmt.Errorf("precision: got %d utilizations, want %d", len(utils), sys.NumECUs)
	}
	res := o.res
	res.RestoreRound, res.RestoreDone = 0, false
	for j := 0; j < sys.NumECUs; j++ {
		res.Reclaimed[j], res.Restored[j] = 0, 0
	}

	// Saturation prevention: shed precision on every latched ECU whose
	// inner-loop control is genuinely infeasible — every task loading the
	// ECU already sits at its rate floor, so the rate controller has no
	// authority left (Section IV.C.1's definition of rate saturation).
	// Transient bound violations that the inner loop can still fix (e.g.
	// measurement noise while rates are above their floors) are left to
	// it. The error e_j of Equation (7) is the measured excess over the
	// bound, plus the configured margin so the inner loop regains
	// authority with slack.
	reduced := false
	for j := 0; j < sys.NumECUs; j++ {
		// Either the clean saturation signal (latched + every task on the
		// ECU pinned at its floor) or the escalation signal (violating
		// three times as long — the inner loop has failed even though
		// coupled rate compromises keep some rates off their floors).
		if !o.det.SaturatedAt(j) || (!o.ratesSaturatedOn(j) && !o.det.StronglySaturatedAt(j)) {
			continue
		}
		e := utils[j] - sys.UtilBound[j] + o.cfg.ReclaimMargin
		if e <= 0 {
			continue
		}
		if got := o.ws.ReduceRatios(o.state, j, e); got > 0 {
			res.Reclaimed[j] = got
			reduced = true
			o.det.Reset(j)
		}
	}

	// Computation precision restorer (Algorithm 1). A floor drop is
	// latched so that it is not lost when it coincides with a saturation
	// reduction; a reduction clears it (restoring into a saturated system
	// would be immediately undone).
	if o.floorsDropped() {
		o.dropPending = true
	}
	if reduced {
		o.dropPending = false
	}
	switch o.phase {
	case restoreIdle:
		if o.dropPending && !o.state.FullPrecision() {
			o.dropPending = false
			o.phase = restoreRounds
			o.restoreRoundCount = 0
			o.runRestoreRound(&res)
		}
	case restoreRounds:
		switch {
		case reduced:
			// Line 6–7: saturation appeared — current ratios are too
			// large; the reduction above resolves it and restoration
			// ends.
			o.phase = restoreIdle
			res.RestoreDone = true
		case o.state.FullPrecision():
			// Line 8–9: full precision recovered.
			o.phase = restoreIdle
			res.RestoreDone = true
		default:
			o.runRestoreRound(&res)
			total := units.Util(0)
			for _, v := range res.Restored {
				total += v
			}
			if total < o.cfg.RestoreEpsilon {
				// Diminishing returns: the rates are effectively at
				// their floors and the remaining headroom cannot fund
				// further precision. Algorithm 1 has converged.
				o.phase = restoreIdle
				res.RestoreDone = true
			}
		}
	}
	o.snapshotFloors()
	return res, nil
}

// runRestoreRound performs one round of Algorithm 1: bisect every task rate
// toward its floor (line 1) and refill the resulting headroom with
// precision (line 2). The inner loop then re-settles utilizations with the
// new execution times (line 3).
func (o *Controller) runRestoreRound(res *Result) {
	o.restoreRoundCount++
	res.RestoreRound = o.restoreRoundCount
	sys := o.state.System()
	for i := range sys.Tasks {
		id := taskmodel.TaskID(i)
		mid := (o.state.Rate(id) + o.state.RateFloor(id)) / 2
		o.state.SetRate(id, mid)
	}
	for j := 0; j < sys.NumECUs; j++ {
		budget := (sys.UtilBound[j] - o.cfg.RestoreSlack) - o.state.EstimatedUtilization(j)
		if budget > 0 {
			res.Restored[j] += o.ws.RestoreRatios(o.state, j, budget)
		}
	}
}

// ratesSaturatedOn reports whether every task with a subtask on ECU j is
// pinned at its rate floor (within a small relative tolerance): the
// condition under which the inner loop cannot reduce the ECU's utilization
// any further.
func (o *Controller) ratesSaturatedOn(j int) bool {
	seen := false
	for _, ref := range o.state.System().OnECU(j) {
		seen = true
		if !o.state.RateSaturated(ref.Task, 0.02) {
			return false
		}
	}
	return seen
}

// floorsDropped reports whether any task's rate floor fell by more than the
// configured leeway since the last outer period.
func (o *Controller) floorsDropped() bool {
	for i := range o.prevFloors {
		cur := o.state.RateFloor(taskmodel.TaskID(i))
		if cur < o.prevFloors[i].Scale(1-o.cfg.RestoreLeeway) {
			return true
		}
	}
	return false
}

// Reset returns the controller to its freshly-constructed state on the
// current contents of its State: saturation streaks clear, the restorer
// idles, and the floor snapshot is retaken. Callers must put the State
// into its run-start condition first — Reset observes it exactly as New
// does at construction.
func (o *Controller) Reset() {
	o.det.ResetAll()
	o.phase = restoreIdle
	o.dropPending = false
	o.restoreRoundCount = 0
	o.snapshotFloors()
}

// CopyFrom overwrites o's cross-period state — the restore phase machine,
// the latched rate-floor drop, the bisection round counter, the previous
// rate floors and the saturation detector's per-ECU streaks — with src's.
// The knapsack Workspace and the Result buffers are per-step scratch. Both
// controllers must be built from the same system shape and config; src is
// only read.
func (o *Controller) CopyFrom(src *Controller) {
	o.phase = src.phase
	o.dropPending = src.dropPending
	o.restoreRoundCount = src.restoreRoundCount
	copy(o.prevFloors, src.prevFloors)
	copy(o.det.counts, src.det.counts)
}

// snapshotFloors records the rate floors seen this outer period so the next
// Step can detect fresh drops.
func (o *Controller) snapshotFloors() {
	for i := range o.prevFloors {
		o.prevFloors[i] = o.state.RateFloor(taskmodel.TaskID(i))
	}
}

// Restoring reports whether a restoration is in progress.
func (o *Controller) Restoring() bool { return o.phase == restoreRounds }
