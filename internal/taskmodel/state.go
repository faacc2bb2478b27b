package taskmodel

import (
	"fmt"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/units"
)

// State is the mutable operating point of a System: the current invocation
// rate r_i of every task, the current execution-time ratio a_il of every
// subtask, and the current rate floor r_min,i (which scenario scripts move
// to model vehicle-speed changes).
//
// State methods enforce the model's box constraints: rates are clamped into
// [RateFloor, RateMax] and ratios into [MinRatio, 1].
type State struct {
	sys    *System
	rates  []units.Rate
	floors []units.Rate
	ratios [][]units.Ratio
}

// NewState returns the initial operating point: every task at its InitRate
// with every ratio at 1 (full precision).
func NewState(sys *System) *State {
	st := &State{
		sys:    sys,
		rates:  make([]units.Rate, len(sys.Tasks)),
		floors: make([]units.Rate, len(sys.Tasks)),
		ratios: make([][]units.Ratio, len(sys.Tasks)),
	}
	for i, task := range sys.Tasks {
		st.rates[i] = task.InitRate
		st.floors[i] = task.RateMin
		st.ratios[i] = make([]units.Ratio, len(task.Subtasks))
		for l := range st.ratios[i] {
			st.ratios[i][l] = 1
		}
	}
	return st
}

// System returns the static description this state belongs to.
func (st *State) System() *System { return st.sys }

// Reset returns every rate, floor, and precision ratio to its initial
// value in place, exactly as NewState sets them, reusing the buffers.
func (st *State) Reset() {
	for i, task := range st.sys.Tasks {
		st.rates[i] = task.InitRate
		st.floors[i] = task.RateMin
		for l := range st.ratios[i] {
			st.ratios[i][l] = 1
		}
	}
}

// Rate returns the current invocation rate of task i in Hz.
func (st *State) Rate(i TaskID) units.Rate { return st.rates[i] }

// Rates returns a copy of all current task rates.
func (st *State) Rates() []units.Rate {
	out := make([]units.Rate, len(st.rates))
	copy(out, st.rates)
	return out
}

// SetRate sets task i's rate, clamped into [RateFloor(i), RateMax]. It
// returns the applied value.
func (st *State) SetRate(i TaskID, r units.Rate) units.Rate {
	lo, hi := st.floors[i], st.sys.Tasks[i].RateMax
	if r < lo {
		r = lo
	}
	if r > hi {
		r = hi
	}
	st.rates[i] = r
	return r
}

// RateFloor returns the current determined rate r_min,i of task i.
func (st *State) RateFloor(i TaskID) units.Rate { return st.floors[i] }

// SetRateFloor moves the determined rate of task i (vehicle-speed change).
// The current rate is pulled up if it falls below the new floor. The floor
// may be any positive value and is capped at the task's RateMax. It returns
// the applied floor.
func (st *State) SetRateFloor(i TaskID, floor units.Rate) units.Rate {
	if floor <= 0 {
		panic(fmt.Sprintf("taskmodel: non-positive rate floor %v for task %d", floor, i))
	}
	if hi := st.sys.Tasks[i].RateMax; floor > hi {
		floor = hi
	}
	st.floors[i] = floor
	if st.rates[i] < floor {
		st.rates[i] = floor
	}
	return floor
}

// RateSaturated reports whether task i's rate is at its floor (within tol,
// relative).
func (st *State) RateSaturated(i TaskID, tol float64) bool {
	return st.rates[i] <= st.floors[i].Scale(1+tol)
}

// Ratio returns the current execution-time ratio a_il of the subtask.
func (st *State) Ratio(ref SubtaskRef) units.Ratio { return st.ratios[ref.Task][ref.Index] }

// SetRatio sets a_il, clamped into [MinRatio, 1] and, for subtasks with
// discrete precision options, floored onto the RatioStep grid
// (Section IV.E.2). It returns the applied value.
func (st *State) SetRatio(ref SubtaskRef, a units.Ratio) units.Ratio {
	sub := st.sys.Subtask(ref)
	if sub.RatioStep > 0 && a < 1 {
		a = a.FloorToGrid(sub.RatioStep)
	}
	a = a.Clamp(sub.MinRatio)
	st.ratios[ref.Task][ref.Index] = a
	return a
}

// Period returns the current period of task i (1/rate).
func (st *State) Period(i TaskID) simtime.Duration {
	return st.rates[i].Period()
}

// Subdeadline returns the per-subtask relative deadline of task i: one
// task period. Section V.A.3 divides the end-to-end deadline d_i evenly
// into n_i subdeadlines and sets the subtask period to p = d_i/n_i, so the
// task rate r_i is 1/p and each stage owns one period.
func (st *State) Subdeadline(i TaskID) simtime.Duration {
	return st.Period(i)
}

// E2EDeadline returns the end-to-end deadline of task i: n_i subdeadlines
// of one period each (d_i = n_i · p).
func (st *State) E2EDeadline(i TaskID) simtime.Duration {
	return st.Period(i) * simtime.Duration(len(st.sys.Tasks[i].Subtasks))
}

// EstimatedUtilization evaluates Equation (2) for ECU j at the current
// operating point: u_j = Σ_{T_il ∈ S_j} c_il·a_il·r_i, using the offline
// execution-time estimates.
func (st *State) EstimatedUtilization(j int) units.Util {
	u := units.Util(0)
	for _, ref := range st.sys.OnECU(j) {
		sub := st.sys.Subtask(ref)
		u += units.Load(sub.NominalExec, st.Ratio(ref), st.rates[ref.Task])
	}
	return u
}

// EstimatedUtilizations evaluates Equation (2) for every ECU.
func (st *State) EstimatedUtilizations() []units.Util {
	out := make([]units.Util, st.sys.NumECUs)
	for j := range out {
		out[j] = st.EstimatedUtilization(j)
	}
	return out
}

// FullPrecision reports whether every subtask runs at ratio 1 — the
// termination condition of the restorer (Algorithm 1 line 8).
func (st *State) FullPrecision() bool {
	for i := range st.ratios {
		for _, a := range st.ratios[i] {
			if a < 1 {
				return false
			}
		}
	}
	return true
}

// TotalPrecision returns the weighted computation precision Σ w_il·a_il
// over all subtasks — the objective of Equation (5), and the quantity
// plotted in Figures 8(c), 9(c)/(d) and 12(c)/(d).
func (st *State) TotalPrecision() float64 {
	p := 0.0
	for ti, task := range st.sys.Tasks {
		for si := range task.Subtasks {
			p += task.Subtasks[si].Weight * st.ratios[ti][si].Float()
		}
	}
	return p
}

// CloneInto deep-copies the operating point into dst and returns it,
// reusing dst's backing arrays. A nil dst — or one cloned from a different
// System, whose buffers cannot be shaped to fit — falls back to a fresh
// Clone. The copy shares only the immutable System with st.
func (st *State) CloneInto(dst *State) *State {
	if dst == nil || dst.sys != st.sys {
		return st.Clone()
	}
	dst.rates = append(dst.rates[:0], st.rates...)
	dst.floors = append(dst.floors[:0], st.floors...)
	for i := range st.ratios {
		dst.ratios[i] = append(dst.ratios[i][:0], st.ratios[i]...)
	}
	return dst
}

// Clone returns an independent copy of the operating point (sharing the
// immutable System).
func (st *State) Clone() *State {
	out := &State{
		sys:    st.sys,
		rates:  append([]units.Rate(nil), st.rates...),
		floors: append([]units.Rate(nil), st.floors...),
		ratios: make([][]units.Ratio, len(st.ratios)),
	}
	for i := range st.ratios {
		out.ratios[i] = append([]units.Ratio(nil), st.ratios[i]...)
	}
	return out
}
