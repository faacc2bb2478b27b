// Package core assembles the AutoE2E middleware: the inner rate-based MPC
// loop (package eucon), the outer precision-based loop (package precision),
// the utilization monitors and the rate/execution-time modulators, wired to
// the distributed scheduler simulation (package sched) on one event engine.
//
// It also provides Session, the one place a run is assembled, and the entry
// points over it: Run (a fresh Session used once, the one-call runner of
// the examples, the CLI tools and the figure reproductions), RunAll,
// RunStream and RunTree.
package core

import (
	"fmt"

	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/precision"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Mode selects how much of the middleware is active, matching the paper's
// comparison arms.
type Mode int

const (
	// ModeOpen runs no online adaptation at all: rates are whatever the
	// setup assigned (typically baseline.OpenLoop). The paper's OPEN arm.
	ModeOpen Mode = iota
	// ModeEUCON runs only the inner rate-based loop. The paper's EUCON
	// arm.
	ModeEUCON
	// ModeAutoE2E runs both loops — the paper's system.
	ModeAutoE2E
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case ModeOpen:
		return "OPEN"
	case ModeEUCON:
		return "EUCON"
	case ModeAutoE2E:
		return "AutoE2E"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles the middleware.
type Config struct {
	// Mode selects the comparison arm. The zero Mode is ModeOpen (no
	// online adaptation), and withDefaults keeps it: a run that wants the
	// paper's system must ask for ModeAutoE2E.
	Mode Mode
	// InnerPeriod is the inner-loop control period; it must span several
	// task instances so the utilization monitor samples meaningfully
	// (the testbed uses 1 s). Default 1 s.
	InnerPeriod simtime.Duration
	// OuterEvery is the outer-loop period expressed in inner periods
	// (the testbed uses 10). Default 10.
	OuterEvery int
	// Eucon tunes the inner MPC.
	Eucon eucon.Config
	// DecentralizedInner replaces the centralized MPC with the
	// DEUCON-inspired per-task local controllers (eucon.Decentralized).
	// The Eucon field is ignored when set.
	DecentralizedInner bool
	// Decentralized tunes the decentralized inner loop (used only with
	// DecentralizedInner).
	Decentralized eucon.DecentralizedConfig
	// Precision tunes the outer loop.
	Precision precision.Config
}

func (c Config) withDefaults() Config {
	if c.InnerPeriod == 0 {
		c.InnerPeriod = simtime.Second
	}
	if c.OuterEvery == 0 {
		c.OuterEvery = 10
	}
	return c
}

func (c Config) validate() error {
	if c.InnerPeriod <= 0 {
		return fmt.Errorf("core: InnerPeriod = %v, want > 0", c.InnerPeriod)
	}
	if c.OuterEvery < 1 {
		return fmt.Errorf("core: OuterEvery = %d, want >= 1", c.OuterEvery)
	}
	return nil
}

// rateController is the inner-loop contract both the centralized MPC and
// the decentralized variant satisfy. Reset clears any cross-period state
// so a reused controller behaves like a freshly-built one (Session reuse).
type rateController interface {
	Step(utils []units.Util) (eucon.Result, error)
	Reset()
}

// Middleware is the assembled two-tier controller attached to a scheduler.
type Middleware struct {
	eng   *simtime.Engine
	sch   sched.Driver
	state *taskmodel.State
	cfg   Config
	inner rateController
	outer *precision.Controller
	rec   *trace.Recorder
	// onInner, if set, observes every inner tick after the controllers
	// have acted (used by baselines and co-simulations that piggyback on
	// the monitoring cadence).
	onInner func(now simtime.Time, utils []units.Util, st *taskmodel.State)

	// Per-index series handles are interned once so the per-second control
	// tick neither formats strings nor pays a map lookup per sample, and
	// the sampling buffers are reused so the tick does not allocate against
	// the scheduler either. Handles stay valid across Recorder.Reset, so a
	// Session reuses them as-is.
	utilHs        []*trace.Series
	rateHs        []*trace.Series
	missHs        []*trace.Series
	overallH      *trace.Series
	precisionH    *trace.Series
	reclaimedHs   []*trace.Series
	restoredHs    []*trace.Series
	restoreRoundH *trace.Series
	//lint:sticky sampling scratch, fully overwritten by SampleUtilizationsInto before each read
	utilsBuf []units.Util

	innerCount int
	//lint:sticky double-buffer; Start refills it before the first tick reads it
	lastCounters []sched.TaskCounter
	//lint:sticky double-buffer scratch, fully overwritten by CountersInto before each read
	countersBuf []sched.TaskCounter
	started     bool
	err         error
}

// NewMiddleware wires the controllers to a scheduler; they record their
// series into rec.
func NewMiddleware(eng *simtime.Engine, sch sched.Driver, cfg Config, rec *trace.Recorder) (*Middleware, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Middleware{
		eng:   eng,
		sch:   sch,
		state: sch.State(),
		cfg:   cfg,
		rec:   rec,
	}
	sys := m.state.System()
	m.utilHs = make([]*trace.Series, sys.NumECUs)
	m.reclaimedHs = make([]*trace.Series, sys.NumECUs)
	m.restoredHs = make([]*trace.Series, sys.NumECUs)
	for j := 0; j < sys.NumECUs; j++ {
		m.utilHs[j] = rec.Handle(fmt.Sprintf("util.ecu%d", j))
		m.reclaimedHs[j] = rec.Handle(fmt.Sprintf("outer.reclaimed.ecu%d", j))
		m.restoredHs[j] = rec.Handle(fmt.Sprintf("outer.restored.ecu%d", j))
	}
	m.rateHs = make([]*trace.Series, len(sys.Tasks))
	m.missHs = make([]*trace.Series, len(sys.Tasks))
	for i := range sys.Tasks {
		m.rateHs[i] = rec.Handle(fmt.Sprintf("rate.t%d", i+1))
		m.missHs[i] = rec.Handle(fmt.Sprintf("missratio.t%d", i+1))
	}
	m.overallH = rec.Handle("missratio.overall")
	m.precisionH = rec.Handle("precision.total")
	m.restoreRoundH = rec.Handle("outer.restore_round")
	var err error
	if cfg.Mode == ModeEUCON || cfg.Mode == ModeAutoE2E {
		if cfg.DecentralizedInner {
			m.inner, err = eucon.NewDecentralized(m.state, cfg.Decentralized)
		} else {
			m.inner, err = eucon.New(m.state, cfg.Eucon)
		}
		if err != nil {
			return nil, err
		}
	}
	if cfg.Mode == ModeAutoE2E {
		if m.outer, err = precision.New(m.state, cfg.Precision); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Err returns the first controller failure encountered during the run, or
// nil. A non-nil error means the middleware stopped the engine early and
// the collected traces cover only the prefix of the run.
func (m *Middleware) Err() error { return m.err }

// fail records the first controller failure and stops the engine so the
// run surfaces the error instead of coasting on a broken control loop.
func (m *Middleware) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.eng.Stop()
}

// Start schedules the periodic control ticks. Call once, before running the
// engine.
func (m *Middleware) Start() {
	if m.started {
		panic("core: Middleware.Start called twice") //lint:allow effects double Start corrupts the tick cadence; failing loudly is the contract
	}
	m.started = true
	m.lastCounters = m.sch.CountersInto(m.lastCounters)
	m.eng.AfterCall(m.cfg.InnerPeriod, middlewareTickEvent, m)
}

// Reset returns the middleware to its just-constructed state so a Session
// can rerun it against a reset scheduler and recorder. The interned series
// handles, name strings, and sampling buffers are kept — that reuse is the
// point.
func (m *Middleware) Reset() {
	if m.inner != nil {
		m.inner.Reset()
	}
	if m.outer != nil {
		m.outer.Reset()
	}
	m.onInner = nil
	m.innerCount = 0
	m.started = false
	m.err = nil
}

// copyFrom overwrites m's run state — both controllers' cross-period
// state and the tick bookkeeping — with src's. Both middlewares must be
// built for the same system shape and config; src is only read. The
// decentralized inner controller carries no cross-period state, so Reset
// is its full copy.
func (m *Middleware) copyFrom(src *Middleware) {
	if c, ok := m.inner.(*eucon.Controller); ok {
		c.CopyFrom(src.inner.(*eucon.Controller))
	} else if m.inner != nil {
		m.inner.Reset()
	}
	if m.outer != nil {
		m.outer.CopyFrom(src.outer)
	}
	m.onInner = src.onInner
	m.innerCount = src.innerCount
	m.lastCounters = append(m.lastCounters[:0], src.lastCounters...)
	m.started = src.started
	m.err = src.err
}

// solveStats reports the centralized inner MPC's solve totals, or zero when
// the run has no such controller.
func (m *Middleware) solveStats() eucon.SolveStats {
	if c, ok := m.inner.(*eucon.Controller); ok {
		return c.SolveStats()
	}
	return eucon.SolveStats{}
}

// middlewareTickEvent is the engine trampoline for the inner control tick.
// A package-level function scheduled via AfterCall with the middleware as
// the argument, it avoids the per-tick method-value closure allocation that
// m.innerTick as an EventFunc would cost.
//
//lint:certify noalloc,nopanic,deterministic inner control tick: monitor sampling, MPC step, outer observation, metric recording
func middlewareTickEvent(now simtime.Time, arg any) {
	arg.(*Middleware).innerTick(now)
}

// innerTick runs one inner control period: sample monitors, record metrics,
// run the rate controller, and every OuterEvery-th period run the outer
// precision controller.
func (m *Middleware) innerTick(now simtime.Time) {
	m.utilsBuf = m.sch.SampleUtilizationsInto(m.utilsBuf)
	utils := m.utilsBuf
	m.recordMetrics(now, utils)

	if m.inner != nil {
		//lint:hookpoint inner controllers certify their own Step roots; the decentralized variant legitimately spawns workers
		if _, err := m.inner.Step(utils); err != nil {
			// The MPC can only fail on programmer error (dimension
			// mismatch); stopping the run loudly beats silently coasting.
			m.fail(fmt.Errorf("core: inner loop at %v: %w", now, err)) //lint:allow effects error path; the run is already failing
			return
		}
	}
	if m.onInner != nil {
		defer m.onInner(now, utils, m.state) //lint:hookpoint the observer is caller-supplied instrumentation outside the certified substrate
	}
	if m.outer != nil {
		m.outer.ObserveInner(utils)
		m.innerCount++
		if m.innerCount%m.cfg.OuterEvery == 0 {
			res, err := m.outer.Step(utils)
			if err != nil {
				m.fail(fmt.Errorf("core: outer loop at %v: %w", now, err)) //lint:allow effects error path; the run is already failing
				return
			}
			for j := range res.Reclaimed {
				if res.Reclaimed[j] > 0 {
					m.reclaimedHs[j].Add(now.Seconds(), res.Reclaimed[j].Float())
				}
				if res.Restored[j] > 0 {
					m.restoredHs[j].Add(now.Seconds(), res.Restored[j].Float())
				}
			}
			if res.RestoreRound > 0 {
				m.restoreRoundH.Add(now.Seconds(), float64(res.RestoreRound))
			}
		}
	}
	m.eng.AfterCall(m.cfg.InnerPeriod, middlewareTickEvent, m)
}

// recordMetrics appends the per-period observability series: utilization
// per ECU, rate per task, windowed miss ratio per task and overall, and the
// total computation precision.
func (m *Middleware) recordMetrics(now simtime.Time, utils []units.Util) {
	t := now.Seconds()
	for j, u := range utils {
		m.utilHs[j].Add(t, u.Float())
	}
	sys := m.state.System()
	// Double-buffer the counter snapshots: the previous snapshot becomes
	// this tick's scratch buffer, so steady-state ticks allocate nothing.
	counters := m.sch.CountersInto(m.countersBuf)
	var windowMissed, windowResolved uint64
	for i := range sys.Tasks {
		m.rateHs[i].Add(t, m.state.Rate(taskmodel.TaskID(i)).Float())
		d := counters[i].Sub(m.lastCounters[i])
		m.missHs[i].Add(t, d.MissRatio())
		windowMissed += d.Missed
		windowResolved += d.Missed + d.Completed
	}
	overall := 0.0
	if windowResolved > 0 {
		overall = float64(windowMissed) / float64(windowResolved)
	}
	m.overallH.Add(t, overall)
	m.precisionH.Add(t, m.state.TotalPrecision())
	m.countersBuf = m.lastCounters
	m.lastCounters = counters
}
