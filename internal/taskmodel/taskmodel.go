// Package taskmodel defines the end-to-end task model of Section IV.A of
// the AutoE2E paper: periodic end-to-end tasks composed of chains of
// subtasks placed on ECU processors, with an adjustable invocation rate per
// task and an adjustable execution-time ratio (computation precision) per
// subtask.
//
// The static description (System, Task, Subtask) is immutable after
// validation; the mutable control state (current rates and ratios) lives in
// State so that controllers, schedulers and oracles can share one
// description while exploring different operating points.
package taskmodel

import (
	"fmt"
	"math"
	"slices"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/units"
)

// TaskID indexes a task within its System.
type TaskID int

// SubtaskRef addresses one subtask within a System.
type SubtaskRef struct {
	Task  TaskID
	Index int // position in the task's chain, 0-based
}

// String renders the reference like "T3_2" (1-based, matching the paper's
// figures).
func (r SubtaskRef) String() string {
	return fmt.Sprintf("T%d_%d", int(r.Task)+1, r.Index+1)
}

// Subtask is one stage of an end-to-end task, pinned to one ECU processor.
type Subtask struct {
	// Name is a human label such as "MPC steering computation".
	Name string
	// ECU is the index of the processor this subtask executes on.
	ECU int
	// NominalExec is c_il: the estimated maximum execution time measured
	// offline. The actual execution time at runtime is
	// c_il·a_il·(runtime variation).
	NominalExec simtime.Duration
	// MinRatio is a_min,il, the lowest allowed execution-time ratio.
	// Non-adjustable subtasks have MinRatio == 1.
	MinRatio units.Ratio
	// Weight is w_il, the precision weight used by the outer controller's
	// knapsack objective. Zero-weight adjustable subtasks are reduced
	// first.
	Weight float64
	// RatioStep, when positive, restricts the execution-time ratio to the
	// discrete grid {k·RatioStep} ∪ {1}: some control applications only
	// offer discrete precision options (Section IV.E.2). Requested ratios
	// are floored onto the grid (never below MinRatio), which always errs
	// on the side of reclaiming more utilization. Zero means continuous.
	RatioStep units.Ratio
}

// Adjustable reports whether the subtask's precision can be traded for
// execution time.
func (s *Subtask) Adjustable() bool { return s.MinRatio < 1 }

// Task is a periodic end-to-end task: a chain of subtasks linked by
// precedence constraints (release guard). All subtasks share the task's
// invocation rate; Section V.A.3 divides the end-to-end deadline d evenly
// into per-stage subdeadlines and sets the subtask period to p = d/n, so
// the end-to-end deadline spans n periods and each stage owns one period.
type Task struct {
	// Name is a human label such as "steering control".
	Name string
	// Subtasks is the precedence chain, first to last.
	Subtasks []Subtask
	// RateMin is the determined task rate in Hz, set by vehicle speed:
	// the inner controller may never go below it. Scenario scripts move
	// it at runtime via State.SetRateFloor.
	RateMin units.Rate
	// RateMax is the upper rate limit in Hz.
	RateMax units.Rate
	// InitRate is the rate the task starts at. Zero means start at
	// RateMin.
	InitRate units.Rate
}

// System is an immutable description of a distributed real-time system:
// n ECU processors and m end-to-end tasks (Figure 5).
type System struct {
	// NumECUs is n, the number of ECU processors.
	NumECUs int
	// Tasks is the task set, indexed by TaskID.
	Tasks []*Task
	// UtilBound is B_j per ECU. Leave nil to use the RMS bound for the
	// number of subtasks placed on each ECU (applied by Validate).
	UtilBound []units.Util

	// onECU caches the S_j sets (built by Validate): OnECU sits under the
	// utilization-estimation and knapsack hot paths, which must not
	// allocate per call.
	onECU [][]SubtaskRef
}

// RMSBound returns the Liu & Layland rate-monotonic schedulable utilization
// bound n·(2^{1/n} − 1) for n tasks. RMSBound(0) is 1 by convention (an
// empty processor can be fully utilized).
func RMSBound(n int) units.Util {
	if n <= 0 {
		return 1
	}
	return units.RawUtil(float64(n) * (math.Pow(2, 1/float64(n)) - 1))
}

// Validate checks structural invariants and fills defaulted fields
// (UtilBound from the RMS bound, InitRate from RateMin). It must be called
// before the system is used (a core run calls it when it builds for the
// System); it returns a descriptive error on the first violation found.
// It writes nothing to an unchanged System it already accepted, so it may
// run while other goroutines read that System.
func (s *System) Validate() error {
	if s.NumECUs <= 0 {
		return fmt.Errorf("taskmodel: NumECUs = %d, want > 0", s.NumECUs)
	}
	if len(s.Tasks) == 0 {
		return fmt.Errorf("taskmodel: empty task set")
	}
	for ti, task := range s.Tasks {
		if task == nil {
			return fmt.Errorf("taskmodel: task %d is nil", ti)
		}
		if len(task.Subtasks) == 0 {
			return fmt.Errorf("taskmodel: task %q has no subtasks", task.Name)
		}
		if !Finite(task.RateMin.Float()) || task.RateMin <= 0 {
			return fmt.Errorf("taskmodel: task %q RateMin = %v, want finite > 0", task.Name, task.RateMin)
		}
		if !Finite(task.RateMax.Float()) || task.RateMax < task.RateMin {
			return fmt.Errorf("taskmodel: task %q RateMax %v < RateMin %v", task.Name, task.RateMax, task.RateMin)
		}
		// The controllers may move the rate anywhere in [RateMin, RateMax]:
		// a period must be at least 1µs, and a deadline (one period per stage)
		// must leave half the clock's range for the release it is added to.
		if float64(len(task.Subtasks))/task.RateMin.Float() >= simtime.Unbounded.Seconds()/2 {
			return fmt.Errorf("taskmodel: task %q RateMin %v gives a %d-period deadline past half the clock's range", task.Name, task.RateMin, len(task.Subtasks))
		}
		if task.RateMax.Period() < simtime.Microsecond {
			return fmt.Errorf("taskmodel: task %q RateMax %v has a period below the clock's 1µs resolution", task.Name, task.RateMax)
		}
		if task.InitRate == 0 {
			task.InitRate = task.RateMin
		}
		if !Finite(task.InitRate.Float()) || task.InitRate < task.RateMin || task.InitRate > task.RateMax {
			return fmt.Errorf("taskmodel: task %q InitRate %v outside [%v, %v]",
				task.Name, task.InitRate, task.RateMin, task.RateMax)
		}
		for si := range task.Subtasks {
			sub := &task.Subtasks[si]
			if sub.ECU < 0 || sub.ECU >= s.NumECUs {
				return fmt.Errorf("taskmodel: %v on ECU %d, want [0, %d)", SubtaskRef{TaskID(ti), si}, sub.ECU, s.NumECUs)
			}
			if sub.NominalExec <= 0 {
				return fmt.Errorf("taskmodel: %v NominalExec = %v, want > 0", SubtaskRef{TaskID(ti), si}, sub.NominalExec)
			}
			if !Finite(sub.MinRatio.Float()) || sub.MinRatio <= 0 || sub.MinRatio > 1 {
				return fmt.Errorf("taskmodel: %v MinRatio = %v, want (0, 1]", SubtaskRef{TaskID(ti), si}, sub.MinRatio)
			}
			if !Finite(sub.Weight) || sub.Weight < 0 {
				return fmt.Errorf("taskmodel: %v Weight = %v, want finite >= 0", SubtaskRef{TaskID(ti), si}, sub.Weight)
			}
			if !Finite(sub.RatioStep.Float()) || sub.RatioStep < 0 || sub.RatioStep >= 1 {
				return fmt.Errorf("taskmodel: %v RatioStep = %v, want [0, 1)", SubtaskRef{TaskID(ti), si}, sub.RatioStep)
			}
		}
	}
	on := buildOnECU(s)
	if s.UtilBound == nil {
		s.UtilBound = make([]units.Util, s.NumECUs)
		for j := range s.UtilBound {
			s.UtilBound[j] = RMSBound(len(on[j]))
		}
	}
	if len(s.UtilBound) != s.NumECUs {
		return fmt.Errorf("taskmodel: UtilBound length %d != NumECUs %d", len(s.UtilBound), s.NumECUs)
	}
	for j, b := range s.UtilBound {
		if !Finite(b.Float()) || b <= 0 || b > 1 {
			return fmt.Errorf("taskmodel: UtilBound[%d] = %v, want (0, 1]", j, b)
		}
	}
	if !slices.EqualFunc(on, s.onECU, slices.Equal[[]SubtaskRef]) {
		s.onECU = on
	}
	return nil
}

// Finite reports whether x is neither NaN nor ±Inf. Range checks are
// ordered comparisons, which NaN passes, so every validated float field
// (here and in the controllers' configs) goes through it first.
func Finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// buildOnECU computes the S_j sets of Equation (2) for every ECU, in task
// order.
func buildOnECU(s *System) [][]SubtaskRef {
	sets := make([][]SubtaskRef, s.NumECUs)
	for ti, task := range s.Tasks {
		for si := range task.Subtasks {
			j := task.Subtasks[si].ECU
			sets[j] = append(sets[j], SubtaskRef{TaskID(ti), si})
		}
	}
	return sets
}

// Subtask returns the subtask addressed by ref.
func (s *System) Subtask(ref SubtaskRef) *Subtask {
	return &s.Tasks[ref.Task].Subtasks[ref.Index]
}

// OnECU returns the references of all subtasks placed on ECU j (the set S_j
// of Equation 2), in task order. The returned slice is a shared cache that
// Validate builds, so the System must be validated first; callers iterate
// it but must not mutate or retain it past the System's lifetime.
func (s *System) OnECU(j int) []SubtaskRef {
	return s.onECU[j]
}
