package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// probeSystem is one ECU running one single-stage task at exactly rate,
// with a 1µs execution time and no precision to shed.
func probeSystem(rate float64) *taskmodel.System {
	return &taskmodel.System{NumECUs: 1, Tasks: []*taskmodel.Task{{
		Name:     "probe",
		Subtasks: []taskmodel.Subtask{{Name: "s", NominalExec: simtime.Microsecond, MinRatio: 1, Weight: 1}},
		RateMin:  units.RawRate(rate),
		RateMax:  units.RawRate(rate),
	}}}
}

// TestUnholdableRatesRejected: a run whose System has a rate the
// integer-µs clock cannot hold fails at once with Validate's error, though
// the caller never called Validate. Unchecked, a run at 3e6 Hz re-armed
// its release at one instant forever (the period rounds to 0µs), and one
// at 1e-300 Hz panicked scheduling an overflowed deadline. The neighbours
// the clock can hold run.
func TestUnholdableRatesRejected(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want string // the field the rejection names; empty if the rate runs
	}{{3e6, "RateMax"}, {2e6, ""}, {1e-300, "RateMin"}, {1e-12, ""}} {
		_, err := Run(RunConfig{System: probeSystem(tc.rate), Exec: exectime.Nominal{}, Duration: simtime.Millisecond})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%g Hz: Run = %v", tc.rate, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%g Hz: Run = %v, want an error naming %s", tc.rate, err, tc.want)
		}
	}
}

// fuzzReleaseBudget bounds one FuzzRunConfig run's work: the duration is
// cut so that at most this many stage releases fit at the tasks' top
// rates.
const fuzzReleaseBudget = 20000

// FuzzRunConfig drives the library surface with small systems (1–4 ECUs,
// 1–6 tasks, 1–3 stages; every rate, ratio, weight and bound drawn from a
// wide range plus NaN, ±Inf, 0, -1 and the rates the clock cannot hold),
// middleware knobs, a duration and an execution-noise seed. An input
// Validate accepts must run without a panic to finite utilizations, rates
// in [r_min, r_max] and ratios in [a_min, 1], and a second Run and a warm
// Session.Run must reproduce it exactly; a config Run refuses must be
// refused the same way again. Any other input must fail Run with
// Validate's error.
func FuzzRunConfig(f *testing.F) {
	for _, sys := range []*taskmodel.System{workload.Testbed(), workload.Simulation(), workload.Synthetic(1, 4, 6)} {
		f.Add(encodeSystem(sys), uint8(ModeAutoE2E), uint8(0x0a), uint16(1999), int64(1), uint8(10))
	}
	f.Add(encodeSystem(workload.Testbed()), uint8(ModeEUCON), uint8(0x47), uint16(499), int64(2), uint8(0))
	// The two rates Validate used to accept although the clock cannot hold
	// them, as in TestUnholdableRatesRejected: a 1 ms OPEN run.
	for _, rate := range []float64{3e6, 1e-300} {
		f.Add(encodeSystem(probeSystem(rate)), uint8(ModeOpen), uint8(0), uint16(0), int64(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, system []byte, mode, knobs uint8, durationMs uint16, seed int64, spread uint8) {
		sys := decodeSystem(system)
		if err := sys.Validate(); err != nil {
			_, runErr := Run(RunConfig{System: sys, Exec: exectime.Nominal{}, Duration: simtime.Millisecond})
			if runErr == nil || runErr.Error() != err.Error() {
				t.Fatalf("Validate = %v, but Run = %v", err, runErr)
			}
			return
		}
		d := simtime.Duration(1+int(durationMs)%2000) * simtime.Millisecond
		var releases float64 // per second, at every task's top rate
		for _, task := range sys.Tasks {
			releases += task.RateMax.Float() * float64(len(task.Subtasks))
		}
		if d.Seconds()*releases > fuzzReleaseBudget {
			d = simtime.FromSeconds(fuzzReleaseBudget / releases)
		}
		mw := Config{
			Mode:               Mode(mode % 3),
			DecentralizedInner: knobs&1 != 0,
			OuterEvery:         1 + int(knobs>>1&3),
			InnerPeriod:        d / simtime.Duration(1+knobs>>3&7),
			Eucon:              eucon.Config{PredictionHorizon: int(knobs >> 6)},
		}
		mk := func() RunConfig {
			var exec exectime.Model = exectime.Nominal{}
			if spread%100 != 0 {
				exec = exectime.NewNoise(exec, float64(spread%100)/100, seed)
			}
			return RunConfig{System: sys, Exec: exec, Middleware: mw, Duration: d}
		}

		s := NewSession()
		res, err := s.Run(mk())
		if err != nil {
			if _, again := Run(mk()); again == nil || again.Error() != err.Error() {
				t.Fatalf("first run failed with %v, second with %v", err, again)
			}
			return
		}
		first := res.Clone()
		checkRunBounds(t, sys, first)
		for _, run := range []struct {
			label string
			run   func(RunConfig) (*RunResult, error)
		}{{"second Run", Run}, {"warm Session.Run", s.Run}} {
			got, err := run.run(mk())
			if err != nil {
				t.Fatalf("%s: %v", run.label, err)
			}
			requireResultsEqual(t, run.label, first, got)
			if got.Solver != first.Solver {
				t.Fatalf("%s: solver totals %+v, first run %+v", run.label, got.Solver, first.Solver)
			}
		}
	})
}

// checkRunBounds checks that every utilization sample is finite, every
// rate sample and final rate lies in [RateMin, RateMax], and every final
// ratio in [MinRatio, 1]. The comparisons are written so NaN fails them.
func checkRunBounds(t *testing.T, sys *taskmodel.System, res *RunResult) {
	t.Helper()
	res.Trace.EachSeries(func(s *trace.Series) {
		for _, v := range s.Values() {
			if strings.HasPrefix(s.Name, "util.") && !taskmodel.Finite(v) {
				t.Fatalf("%s sample %v is not finite", s.Name, v)
			}
		}
	})
	for i, task := range sys.Tasks {
		rates := append(res.Trace.Series(fmt.Sprintf("rate.t%d", i+1)).Values(), res.State.Rate(taskmodel.TaskID(i)).Float())
		for _, r := range rates {
			if !(r >= task.RateMin.Float() && r <= task.RateMax.Float()) {
				t.Fatalf("task %d rate %v outside [%v, %v]", i, r, task.RateMin, task.RateMax)
			}
		}
		for l, sub := range task.Subtasks {
			if a := res.State.Ratio(taskmodel.SubtaskRef{Task: taskmodel.TaskID(i), Index: l}); !(a >= sub.MinRatio && a <= 1) {
				t.Fatalf("task %d stage %d ratio %v outside [%v, 1]", i, l, a, sub.MinRatio)
			}
		}
	}
}

// fuzzReader decodes FuzzRunConfig's system bytes. Reading past the end
// yields zeros, so every byte string decodes to some System.
type fuzzReader []byte

func (r *fuzzReader) next(n int) []byte {
	b := make([]byte, n)
	*r = (*r)[copy(b, *r):]
	return b
}

func (r *fuzzReader) u8() int     { return int(r.next(1)[0]) }
func (r *fuzzReader) u16() uint16 { return binary.LittleEndian.Uint16(r.next(2)) }

// fuzzEdges are the values the top codes of fuzzNum decode to: the ones
// every float check must meet, and the two rates the clock cannot hold.
var fuzzEdges = [8]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1, 1e-300, 3e6}

// fuzzEdgeCodes is where fuzzNum's edge codes start.
const fuzzEdgeCodes = 0xfc00

// fuzzNum decodes a 16-bit code: codes below fuzzEdgeCodes spread
// log-uniformly over [lo, hi), the rest are fuzzEdges.
func fuzzNum(c uint16, lo, hi float64) float64 {
	if c >= fuzzEdgeCodes {
		return fuzzEdges[c%8]
	}
	return lo * math.Pow(hi/lo, float64(c)/fuzzEdgeCodes)
}

// fuzzCode is fuzzNum's inverse: the edge code of an edge value, else the
// nearest code in [lo, hi).
func fuzzCode(x, lo, hi float64) uint16 {
	for i, e := range fuzzEdges {
		if x == e {
			return fuzzEdgeCodes + uint16(i)
		}
	}
	c := math.Round(math.Log(x/lo) / math.Log(hi/lo) * fuzzEdgeCodes)
	return uint16(min(max(c, 0), fuzzEdgeCodes-1))
}

// The ranges fuzzNum spreads each field over. Rates span both limits of
// the clock (a deadline past half its 2^63 µs range below ~2e-13 Hz per
// stage, a period under 1µs above 2e6 Hz); RateMax is RateMin times a
// factor.
const (
	fuzzRateLo, fuzzRateHi     = 1e-14, 1e7
	fuzzFactorLo, fuzzFactorHi = 1, 100
	fuzzRatioLo, fuzzRatioHi   = 0.01, 1
	fuzzWeightLo, fuzzWeightHi = 0.01, 100
	fuzzBoundLo, fuzzBoundHi   = 0.05, 1
)

// decodeSystem reads an unvalidated System: the ECU and task counts, then
// per task its rates and stages, then an optional UtilBound per ECU.
func decodeSystem(b []byte) *taskmodel.System {
	r := fuzzReader(b)
	sys := &taskmodel.System{NumECUs: 1 + r.u8()%4}
	for i, n := 0, 1+r.u8()%6; i < n; i++ {
		rmin := fuzzNum(r.u16(), fuzzRateLo, fuzzRateHi)
		task := &taskmodel.Task{
			Name:    fmt.Sprintf("t%d", i),
			RateMin: units.RawRate(rmin),
			RateMax: units.RawRate(rmin * fuzzNum(r.u16(), fuzzFactorLo, fuzzFactorHi)),
		}
		for l, stages := 0, 1+r.u8()%3; l < stages; l++ {
			task.Subtasks = append(task.Subtasks, taskmodel.Subtask{
				ECU:         r.u8() % sys.NumECUs,
				NominalExec: simtime.Duration(r.u16()),
				MinRatio:    units.RawRatio(fuzzNum(r.u16(), fuzzRatioLo, fuzzRatioHi)),
				Weight:      fuzzNum(r.u16(), fuzzWeightLo, fuzzWeightHi),
				RatioStep:   units.RawRatio(fuzzNum(r.u16(), fuzzRatioLo, fuzzRatioHi)),
			})
		}
		sys.Tasks = append(sys.Tasks, task)
	}
	if r.u8()%2 == 1 {
		for j := 0; j < sys.NumECUs; j++ {
			sys.UtilBound = append(sys.UtilBound, units.RawUtil(fuzzNum(r.u16(), fuzzBoundLo, fuzzBoundHi)))
		}
	}
	return sys
}

// encodeSystem is decodeSystem's inverse for the corpus seeds, to the
// codes' resolution (edge values and execution times are exact). A system
// beyond the fuzzed sizes keeps its first six tasks and three stages per
// task, and its ECU indices wrap onto the first four ECUs.
func encodeSystem(sys *taskmodel.System) []byte {
	tasks := sys.Tasks[:min(len(sys.Tasks), 6)]
	b := []byte{byte(sys.NumECUs - 1), byte(len(tasks) - 1)}
	code := func(x, lo, hi float64) { b = binary.LittleEndian.AppendUint16(b, fuzzCode(x, lo, hi)) }
	for _, task := range tasks {
		code(task.RateMin.Float(), fuzzRateLo, fuzzRateHi)
		code(task.RateMax.Float()/task.RateMin.Float(), fuzzFactorLo, fuzzFactorHi)
		subs := task.Subtasks[:min(len(task.Subtasks), 3)]
		b = append(b, byte(len(subs)-1))
		for _, sub := range subs {
			b = append(b, byte(sub.ECU))
			b = binary.LittleEndian.AppendUint16(b, uint16(sub.NominalExec))
			code(sub.MinRatio.Float(), fuzzRatioLo, fuzzRatioHi)
			code(sub.Weight, fuzzWeightLo, fuzzWeightHi)
			code(sub.RatioStep.Float(), fuzzRatioLo, fuzzRatioHi)
		}
	}
	return append(b, 0) // UtilBound: the RMS default
}
