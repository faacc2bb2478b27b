// Package exectime models the runtime execution-time behaviour of subtasks.
//
// The paper's central premise is that autonomous-driving workloads have
// execution times that cannot be estimated precisely offline: the motivating
// example is a steering MPC whose execution time jumps from 12.1 ms to
// 23.5 ms when the prediction horizon grows on an icy road (Section III).
// AutoE2E's controllers only see the offline estimates c_il; the scheduler
// charges jobs the *actual* demand produced by a Model. The ratio between
// the two is the uncertainty g_j of Equation (4), whose stability range is
// (0, 2).
//
// Models compose: a base nominal model is wrapped with scripted step
// changes, a per-ECU gain, and seeded multiplicative noise.
package exectime

import (
	"math"
	"sort"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// Model produces the actual execution demand of one job.
type Model interface {
	// Demand returns the CPU time one instance of the subtask consumes
	// when released at `now` with execution-time ratio `ratio`. The
	// result must be positive.
	Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration
}

// RandCarrier is implemented by models (and model wrappers) that own
// deterministic random streams. Session snapshot/fork uses it to discover
// every stream a run consumes so a forked continuation can rewind them to
// the captured state; RandsOf walks wrapped models, so composed stacks
// (Noise over Script over Gain) report all their streams.
type RandCarrier interface {
	// Rands returns the model's random streams, innermost first. The
	// returned slice may be freshly allocated; the *simtime.Rand pointers
	// are the live streams, not copies.
	Rands() []*simtime.Rand
}

// RandsOf returns m's random streams if it carries any, or nil. A model
// that is not a RandCarrier is assumed stateless (or must be registered
// explicitly through RunConfig.Rands).
func RandsOf(m Model) []*simtime.Rand {
	if rc, ok := m.(RandCarrier); ok {
		return rc.Rands()
	}
	return nil
}

// Nominal charges exactly c_il·a_il — the controllers' own estimate
// (g_j = 1 everywhere). It is the baseline for deterministic tests.
type Nominal struct{}

// Demand implements Model.
func (Nominal) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, _ simtime.Time, ratio units.Ratio) simtime.Duration {
	d := simtime.Duration(float64(sys.Subtask(ref).NominalExec) * ratio.Float())
	if d < 1 {
		d = 1
	}
	return d
}

// Gain scales the demand of every subtask on selected ECUs by a constant
// factor, realizing the paper's g_j uncertainty. ECUs absent from the map
// use factor 1.
type Gain struct {
	// Inner is the wrapped model.
	Inner Model
	// PerECU maps ECU index to its gain g_j.
	PerECU map[int]float64
}

// Rands implements RandCarrier by forwarding to the wrapped model.
func (g Gain) Rands() []*simtime.Rand { return RandsOf(g.Inner) }

// Demand implements Model.
func (g Gain) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration {
	d := g.Inner.Demand(sys, ref, now, ratio)
	if f, ok := g.PerECU[sys.Subtask(ref).ECU]; ok {
		d = simtime.Duration(float64(d) * f)
		if d < 1 {
			d = 1
		}
	}
	return d
}

// Step is one scripted execution-time change: from At onward, the named
// subtask's demand is multiplied by Factor (relative to the nominal
// estimate). Steps model scenario events such as the icy-road MPC re-tuning.
type Step struct {
	Ref    taskmodel.SubtaskRef
	At     simtime.Time
	Factor float64
}

// Script overlays scripted step changes on an inner model. For each subtask
// the latest step at or before `now` applies; before the first step the
// factor is 1.
type Script struct {
	inner Model
	steps map[taskmodel.SubtaskRef][]Step // sorted by At
}

// NewScript builds a Script over inner from an arbitrary-order step list.
func NewScript(inner Model, steps []Step) *Script {
	s := &Script{inner: inner, steps: make(map[taskmodel.SubtaskRef][]Step)}
	for _, st := range steps {
		s.steps[st.Ref] = append(s.steps[st.Ref], st)
	}
	for ref := range s.steps {
		list := s.steps[ref]
		sort.Slice(list, func(i, j int) bool { return list[i].At < list[j].At })
	}
	return s
}

// Rands implements RandCarrier by forwarding to the wrapped model.
func (s *Script) Rands() []*simtime.Rand { return RandsOf(s.inner) }

// FactorAt returns the scripted multiplier in effect for ref at now.
func (s *Script) FactorAt(ref taskmodel.SubtaskRef, now simtime.Time) float64 {
	list := s.steps[ref]
	f := 1.0
	for _, st := range list {
		if st.At > now {
			break
		}
		f = st.Factor
	}
	return f
}

// Demand implements Model.
func (s *Script) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration {
	d := s.inner.Demand(sys, ref, now, ratio)
	// Applied unconditionally: durations stay far below 2^53 µs, so the
	// round-trip through float64 is exact when the factor is 1.
	d = simtime.Duration(float64(d) * s.FactorAt(ref, now))
	if d < 1 {
		d = 1
	}
	return d
}

// Noise applies seeded multiplicative noise: each job's demand is scaled by
// a factor drawn uniformly from [1−Spread, 1+Spread]. This reproduces the
// "small variations due to the uncertainty of the execution time at
// runtime" visible in Figures 8(c) and 9(c).
type Noise struct {
	inner  Model
	spread float64
	rng    *simtime.Rand
}

// NewNoise wraps inner with multiplicative noise of the given spread
// (0 ≤ spread < 1), using a deterministic stream derived from seed. It
// panics on any other spread, NaN included.
func NewNoise(inner Model, spread float64, seed int64) *Noise {
	if !(spread >= 0 && spread < 1) {
		panic("exectime: noise spread must be in [0, 1)")
	}
	return &Noise{inner: inner, spread: spread, rng: simtime.NewRand(seed)}
}

// Rands implements RandCarrier: the wrapped model's streams followed by
// this layer's own.
func (n *Noise) Rands() []*simtime.Rand { return append(RandsOf(n.inner), n.rng) }

// Reseed re-parameterizes the model in place: the spread is replaced and
// the stream rewound to what a fresh NewNoise(inner, spread, seed) would
// draw, without allocating or panicking (it runs on serving hot paths).
// The caller owns the NewNoise spread contract (0 ≤ spread < 1); out-of-
// range values are clamped to the nearest valid spread, and NaN to 0.
func (n *Noise) Reseed(spread float64, seed int64) {
	if !(spread >= 0) {
		spread = 0
	} else if spread >= 1 {
		spread = math.Nextafter(1, 0)
	}
	n.spread = spread
	n.rng.Reseed(seed)
}

// Demand implements Model.
func (n *Noise) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration {
	d := n.inner.Demand(sys, ref, now, ratio)
	f := n.rng.Uniform(1-n.spread, 1+n.spread)
	d = simtime.Duration(float64(d) * f)
	if d < 1 {
		d = 1
	}
	return d
}
