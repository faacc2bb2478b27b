package eucon

import (
	"fmt"
	"math"

	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Decentralized is a DEUCON-inspired variant of the inner rate loop (Wang,
// Jia, Lu, Koutsoukos: "DEUCON: Decentralized End-to-End Utilization
// Control for Distributed Real-Time Systems", IEEE TPDS 2007 — reference
// [12] of the AutoE2E paper). Instead of one centralized MIMO MPC, each
// task runs a local rate controller that only needs information from its
// *neighbor* ECUs — the processors its own subtasks execute on:
//
//	Δr_i = λ · min over touched ECUs j of (B_j − u_j) / (m_j · F_{j,i})
//
// where m_j is the number of tasks loading ECU j (each task may claim an
// equal share of the ECU's slack) and F_{j,i} is the task's load
// coefficient there. The min makes the most-constrained processor
// authoritative: an over-bound ECU forces every task it hosts to slow
// down, regardless of slack elsewhere.
//
// Compared to the centralized MPC it needs no global state and no matrix
// solve — O(subtasks) per period — at the cost of slower convergence. It
// saturates in exactly the same situations, so the outer precision loop
// composes with it unchanged.
//
// The per-task local solves are independent of each other (each reads only
// the load coefficients, task counts and measured utilizations — never
// another task's rate), so Step computes all moves in a parallel phase and
// then applies them to the shared state serially in task order. The apply
// order is what makes a parallel Step bit-identical to a serial one.
type Decentralized struct {
	state *taskmodel.State
	cfg   DecentralizedConfig

	// Persistent scratch reused across Steps (the decentralized loop is
	// also a hot path in the scalability sweeps). Reset leaves all of it
	// alone on proof that Step never reads a cell it has not written this
	// period — see the sticky justifications and the Session-reuse golden
	// test.
	//lint:sticky scratch; Step rewrites every cell from the system description before any read
	load []float64 // m×n flattened: load[ti*n+j] = F_{j,ti}
	//lint:sticky scratch; Step recounts every ECU from zero before any read
	tasksOn []int // n: tasks loading each ECU
	//lint:sticky scratch; Step clears and refills it for every task before any read
	counted []bool // n
	//lint:sticky scratch; the parallel phase writes every task's move before the serial apply reads any
	deltas []float64 // m: computed moves (NaN = task touches no ECU)
	res    Result

	// curUtils holds the current period's measurements for computeOne;
	// the closure handed to the worker pool is built once in
	// NewDecentralized so that Step does not allocate it per call.
	//lint:sticky aliases Step's utils argument during the parallel phase and is nilled before Step returns
	curUtils  []units.Util
	computeFn func(ti int)
}

// DecentralizedConfig tunes the local controllers.
type DecentralizedConfig struct {
	// Gain is the per-period correction factor λ. Stability of the
	// coupled loops requires 0 < λ < 2 on the dominant ECU; the default
	// 0.8 converges briskly with a comfortable margin.
	Gain float64
	// BoundMargin shifts the per-ECU set-point below the bound, as in the
	// centralized controller. Default 0.
	BoundMargin units.Util
	// Workers bounds the goroutines of the parallel compute phase.
	// Zero means parallel.Workers(); 1 forces a serial step. Results are
	// identical for every value — only wall-clock time changes.
	Workers int
}

func (c DecentralizedConfig) withDefaults() DecentralizedConfig {
	if c.Gain == 0 {
		c.Gain = 0.8
	}
	if c.Workers == 0 {
		c.Workers = parallel.Workers()
	}
	return c
}

func (c DecentralizedConfig) validate() error {
	if !taskmodel.Finite(c.Gain) || c.Gain <= 0 || c.Gain >= 2 {
		return fmt.Errorf("eucon: decentralized Gain = %v, want (0, 2)", c.Gain)
	}
	if !taskmodel.Finite(c.BoundMargin.Float()) || c.BoundMargin < 0 {
		return fmt.Errorf("eucon: decentralized BoundMargin = %v, want finite >= 0", c.BoundMargin)
	}
	if c.Workers < 1 {
		return fmt.Errorf("eucon: decentralized Workers = %d, want >= 1", c.Workers)
	}
	return nil
}

// parallelThreshold is the task count below which the compute phase stays
// serial: goroutine handoff costs more than a handful of local solves.
const parallelThreshold = 64

// NewDecentralized builds the decentralized controller on the shared
// operating point.
func NewDecentralized(state *taskmodel.State, cfg DecentralizedConfig) (*Decentralized, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sys := state.System()
	n, m := sys.NumECUs, len(sys.Tasks)
	d := &Decentralized{
		state:   state,
		cfg:     cfg,
		load:    make([]float64, m*n),
		tasksOn: make([]int, n),
		counted: make([]bool, n),
		deltas:  make([]float64, m),
		res: Result{
			Rates:     make([]units.Rate, m),
			Delta:     make([]units.Rate, m),
			Saturated: make([]bool, m),
		},
	}
	d.computeFn = d.computeOne
	return d, nil
}

// computeOne is the local controller of task ti: it reads the frozen
// load/tasksOn/curUtils snapshots and writes only deltas[ti] (NaN marks a
// task with no load anywhere) — the parallel package's determinism
// contract.
//
//lint:certify noalloc,nopanic,deterministic per-task local solve: preallocated per-worker scratch, no shared writes outside the index slot
func (d *Decentralized) computeOne(ti int) {
	sys := d.state.System()
	n := sys.NumECUs
	delta := math.Inf(1)
	touches := false
	for j := 0; j < n; j++ {
		f := d.load[ti*n+j]
		if f <= 0 {
			continue
		}
		touches = true
		slack := d.curUtils[j].Headroom(sys.UtilBound[j] - d.cfg.BoundMargin)
		share := slack.Float() / (float64(d.tasksOn[j]) * f)
		if share < delta {
			delta = share
		}
	}
	if !touches {
		d.deltas[ti] = math.NaN()
		return
	}
	d.deltas[ti] = d.cfg.Gain * delta
}

// Reset is a no-op: the decentralized controller carries no state across
// periods (every buffer is per-Step scratch, audited field by field above).
// It exists so both inner controllers satisfy the same reuse contract.
func (d *Decentralized) Reset() {}

// Step runs one control period: every task adjusts its rate from its
// neighbor ECUs' measured utilizations. It returns the same Result shape as
// the centralized controller; the Result's slices are reused by the next
// Step (see Result).
//
//lint:certify nopanic,deterministic decentralized period: per-task local solves; worker fan-out legitimately allocates, so no noalloc claim
func (d *Decentralized) Step(utils []units.Util) (Result, error) {
	sys := d.state.System()
	n, m := sys.NumECUs, len(sys.Tasks)
	if len(utils) != n {
		return Result{}, fmt.Errorf("eucon: got %d utilizations, want %d", len(utils), n)
	}

	// Load coefficients and per-ECU task counts (the "neighborhood"
	// bookkeeping each local controller would exchange). Read-only during
	// the parallel phase.
	for i := range d.load {
		d.load[i] = 0
	}
	for j := 0; j < n; j++ {
		d.tasksOn[j] = 0
	}
	for ti, task := range sys.Tasks {
		for j := range d.counted {
			d.counted[j] = false
		}
		for si := range task.Subtasks {
			sub := &task.Subtasks[si]
			ref := taskmodel.SubtaskRef{Task: taskmodel.TaskID(ti), Index: si}
			d.load[ti*n+sub.ECU] += sub.NominalExec.Seconds() * d.state.Ratio(ref).Float()
			if !d.counted[sub.ECU] {
				d.counted[sub.ECU] = true
				d.tasksOn[sub.ECU]++
			}
		}
	}

	// Compute phase: every local solve in parallel over the frozen
	// snapshots, serial below the threshold where goroutine handoff costs
	// more than the solves.
	d.curUtils = utils
	workers := d.cfg.Workers
	if m < parallelThreshold {
		workers = 1
	}
	parallel.ForEach(m, workers, d.computeFn)
	d.curUtils = nil

	// Apply phase: serial, in task order — SetRate mutates shared state.
	res := d.res
	for ti := 0; ti < m; ti++ {
		id := taskmodel.TaskID(ti)
		if math.IsNaN(d.deltas[ti]) {
			res.Rates[ti] = d.state.Rate(id)
			res.Delta[ti] = 0
			res.Saturated[ti] = false
			continue
		}
		move := units.RawRate(d.deltas[ti])
		res.Delta[ti] = move
		res.Rates[ti] = d.state.SetRate(id, d.state.Rate(id)+move)
		res.Saturated[ti] = d.state.RateSaturated(id, 1e-9)
	}
	return res, nil
}
