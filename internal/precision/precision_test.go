package precision

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// knapsackSystem: one ECU with three subtasks of distinct profit/cost
// ratios plus one non-adjustable subtask.
//
//	T1: c=10ms, w=1, a_min=0.2  → profit/cost at r=10: 1/0.1  = 10
//	T2: c=20ms, w=4, a_min=0.2  → 4/0.2 = 20
//	T3: c=10ms, w=3, a_min=0.2  → 3/0.1 = 30
//	T4: c=5ms, non-adjustable
func knapsackSystem(t *testing.T) (*taskmodel.System, *taskmodel.State) {
	t.Helper()
	mk := func(name string, execMs float64, minRatio units.Ratio, weight float64) *taskmodel.Task {
		return &taskmodel.Task{
			Name: name,
			Subtasks: []taskmodel.Subtask{
				{Name: name, ECU: 0, NominalExec: simtime.FromMillis(execMs), MinRatio: minRatio, Weight: weight},
			},
			RateMin: 10, RateMax: 10,
		}
	}
	sys := &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{0.9},
		Tasks: []*taskmodel.Task{
			mk("t1", 10, 0.2, 1),
			mk("t2", 20, 0.2, 4),
			mk("t3", 10, 0.2, 3),
			mk("t4", 5, 1, 1),
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys, taskmodel.NewState(sys)
}

func ref(task, idx int) taskmodel.SubtaskRef {
	return taskmodel.SubtaskRef{Task: taskmodel.TaskID(task), Index: idx}
}

func TestReduceRatiosGreedyOrder(t *testing.T) {
	_, st := knapsackSystem(t)
	// Reclaim 0.05: T1 (cheapest precision per utilization, ratio 10) has
	// capacity 0.8·0.1 = 0.08 ≥ 0.05, so only T1 moves: Δa = 0.5.
	got := ReduceRatios(st, 0, 0.05)
	if math.Abs((got - 0.05).Float()) > 1e-12 {
		t.Errorf("reclaimed = %v, want 0.05", got)
	}
	if a := st.Ratio(ref(0, 0)); math.Abs((a - 0.5).Float()) > 1e-12 {
		t.Errorf("T1 ratio = %v, want 0.5", a)
	}
	for i := 1; i < 4; i++ {
		if a := st.Ratio(ref(i, 0)); a != 1 {
			t.Errorf("T%d ratio = %v, want untouched 1", i+1, a)
		}
	}
}

func TestReduceRatiosSpillsToNextItem(t *testing.T) {
	_, st := knapsackSystem(t)
	// Reclaim 0.12: T1 gives 0.08 (to its floor), remaining 0.04 comes
	// from T2 (next ratio 20): Δa₂ = 0.04/0.2 = 0.2.
	got := ReduceRatios(st, 0, 0.12)
	if math.Abs((got - 0.12).Float()) > 1e-12 {
		t.Errorf("reclaimed = %v, want 0.12", got)
	}
	if a := st.Ratio(ref(0, 0)); math.Abs((a - 0.2).Float()) > 1e-12 {
		t.Errorf("T1 ratio = %v, want floor 0.2", a)
	}
	if a := st.Ratio(ref(1, 0)); math.Abs((a - 0.8).Float()) > 1e-12 {
		t.Errorf("T2 ratio = %v, want 0.8", a)
	}
	if a := st.Ratio(ref(2, 0)); a != 1 {
		t.Errorf("T3 ratio = %v, want untouched", a)
	}
}

func TestReduceRatiosExhaustion(t *testing.T) {
	_, st := knapsackSystem(t)
	// Total adjustable capacity: 0.8·(0.1 + 0.2 + 0.1) = 0.32. Asking for
	// more returns only what exists; non-adjustable T4 never moves.
	got := ReduceRatios(st, 0, 1.0)
	if math.Abs((got - 0.32).Float()) > 1e-12 {
		t.Errorf("reclaimed = %v, want capacity 0.32", got)
	}
	for i := 0; i < 3; i++ {
		if a := st.Ratio(ref(i, 0)); math.Abs((a - 0.2).Float()) > 1e-12 {
			t.Errorf("T%d ratio = %v, want floor", i+1, a)
		}
	}
	if a := st.Ratio(ref(3, 0)); a != 1 {
		t.Errorf("non-adjustable ratio = %v, want 1", a)
	}
}

func TestReduceRatiosMatchesUtilizationDrop(t *testing.T) {
	_, st := knapsackSystem(t)
	before := st.EstimatedUtilization(0)
	got := ReduceRatios(st, 0, 0.1)
	after := st.EstimatedUtilization(0)
	if math.Abs(((before - after) - got).Float()) > 1e-12 {
		t.Errorf("estimated drop %v != reported reclaim %v", before-after, got)
	}
}

func TestReduceRatiosNoopOnNonPositive(t *testing.T) {
	_, st := knapsackSystem(t)
	if got := ReduceRatios(st, 0, 0); got != 0 {
		t.Errorf("reclaim 0 returned %v", got)
	}
	if got := ReduceRatios(st, 0, -1); got != 0 {
		t.Errorf("negative reclaim returned %v", got)
	}
	if st.TotalPrecision() != 9 { // 1+4+3+1 untouched
		t.Error("no-op mutated ratios")
	}
}

func TestRestoreRatiosMostValuableFirst(t *testing.T) {
	_, st := knapsackSystem(t)
	// Push everything to the floor, then restore with a budget of 0.1:
	// T3 (highest profit/cost 30) restores first: full restore costs
	// 0.8·0.1 = 0.08; the remaining 0.02 goes to T2 (20): Δa = 0.1.
	ReduceRatios(st, 0, 1)
	spent := RestoreRatios(st, 0, 0.1)
	if math.Abs((spent - 0.1).Float()) > 1e-12 {
		t.Errorf("spent = %v, want 0.1", spent)
	}
	if a := st.Ratio(ref(2, 0)); math.Abs((a - 1).Float()) > 1e-12 {
		t.Errorf("T3 ratio = %v, want fully restored", a)
	}
	if a := st.Ratio(ref(1, 0)); math.Abs((a - 0.3).Float()) > 1e-12 {
		t.Errorf("T2 ratio = %v, want 0.3", a)
	}
	if a := st.Ratio(ref(0, 0)); math.Abs((a - 0.2).Float()) > 1e-12 {
		t.Errorf("T1 ratio = %v, want still at floor", a)
	}
}

func TestRestoreThenReduceRoundTrip(t *testing.T) {
	_, st := knapsackSystem(t)
	reclaimed := ReduceRatios(st, 0, 0.15)
	spent := RestoreRatios(st, 0, reclaimed)
	if math.Abs((spent - reclaimed).Float()) > 1e-12 {
		t.Errorf("restore spent %v, want %v", spent, reclaimed)
	}
	// The same utilization is back, though possibly distributed to more
	// valuable subtasks: total precision must be >= the reduced level.
	if st.EstimatedUtilization(0) > 0.9+1e-12 {
		t.Error("round trip exceeded the original utilization")
	}
}

// Property: greedy fractional knapsack is optimal — no random feasible
// alternative reclaiming at least as much utilization loses less precision.
func TestReduceRatiosOptimalityProperty(t *testing.T) {
	sys, _ := knapsackSystem(t)
	if err := quick.Check(func(reclaimRaw, altRaw [3]uint8) bool {
		st := taskmodel.NewState(sys)
		reclaim := 0.01 + 0.3*float64(reclaimRaw[0])/255
		before := st.TotalPrecision()
		got := ReduceRatios(st, 0, units.RawUtil(reclaim)).Float()
		greedyLoss := before - st.TotalPrecision()

		// Random alternative: scale per-subtask decrements until the
		// same reclaim is reached.
		alt := taskmodel.NewState(sys)
		weights := []float64{1, 4, 3}
		costs := []float64{0.1, 0.2, 0.1} // c·r per subtask
		fr := make([]float64, 3)
		total := 0.0
		for i := range fr {
			fr[i] = float64(altRaw[i]) / 255
			total += fr[i] * 0.8 * costs[i]
		}
		if total < got {
			return true // alternative infeasible for this reclaim; skip
		}
		// Scale down so the alternative reclaims exactly `got`.
		scale := got / total
		altLoss := 0.0
		for i := range fr {
			da := fr[i] * 0.8 * scale
			alt.SetRatio(ref(i, 0), units.RawRatio(1-da))
			altLoss += weights[i] * da
		}
		return altLoss >= greedyLoss-1e-9
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDetectorLatching(t *testing.T) {
	d := NewDetector(2, 0.02, 3)
	bounds := []units.Util{0.7, 0.7}
	over := []units.Util{0.8, 0.6}
	for i := 0; i < 2; i++ {
		d.Observe(over, bounds)
		if d.SaturatedAt(0) || d.SaturatedAt(1) {
			t.Fatalf("latched after %d periods, want 3", i+1)
		}
	}
	d.Observe(over, bounds)
	if !d.SaturatedAt(0) || d.SaturatedAt(1) {
		t.Fatalf("saturated = [%v %v], want [true false]", d.SaturatedAt(0), d.SaturatedAt(1))
	}
	// A compliant sample resets the streak.
	d.Observe([]units.Util{0.71, 0.6}, bounds) // within threshold
	if d.SaturatedAt(0) {
		t.Error("compliant sample did not reset")
	}
}

func TestDetectorReset(t *testing.T) {
	d := NewDetector(1, 0, 2)
	d.Observe([]units.Util{0.9}, []units.Util{0.7})
	d.Observe([]units.Util{0.9}, []units.Util{0.7})
	if !d.SaturatedAt(0) {
		t.Fatal("not latched")
	}
	d.Reset(0)
	if d.SaturatedAt(0) {
		t.Error("Reset did not clear")
	}
}

func TestDetectorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDetector(1, -0.1, 1) },
		func() { NewDetector(1, units.RawUtil(math.NaN()), 1) },
		func() { NewDetector(1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid detector did not panic")
				}
			}()
			fn()
		}()
	}
}

// controllerSystem: one ECU, two tasks with adjustable first subtasks and
// wide rate ranges, used for outer-loop behaviour tests.
func controllerSystem(t *testing.T) (*taskmodel.System, *taskmodel.State) {
	t.Helper()
	sys := &taskmodel.System{
		NumECUs:   1,
		UtilBound: []units.Util{0.7},
		Tasks: []*taskmodel.Task{
			{
				Name:     "steer",
				Subtasks: []taskmodel.Subtask{{Name: "s", ECU: 0, NominalExec: simtime.FromMillis(20), MinRatio: 0.3, Weight: 2}},
				RateMin:  10, RateMax: 50,
			},
			{
				Name:     "speed",
				Subtasks: []taskmodel.Subtask{{Name: "v", ECU: 0, NominalExec: simtime.FromMillis(10), MinRatio: 0.5, Weight: 1}},
				RateMin:  10, RateMax: 50,
			},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys, taskmodel.NewState(sys)
}

func TestControllerSheddingOnSaturation(t *testing.T) {
	_, st := controllerSystem(t)
	// Floors jump: at r = (25, 25) the estimated load is
	// 0.02·25 + 0.01·25 = 0.75 > bound 0.7.
	st.SetRateFloor(0, 25)
	st.SetRateFloor(1, 25)
	ctl, err := New(st, Config{SaturationPeriods: 3, ReclaimMargin: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	measured := st.EstimatedUtilization(0) // 0.75
	for i := 0; i < 3; i++ {
		ctl.ObserveInner([]units.Util{measured})
	}
	res, err := ctl.Step([]units.Util{measured})
	if err != nil {
		t.Fatal(err)
	}
	want := measured - 0.7 + 0.03
	if math.Abs((res.Reclaimed[0] - want).Float()) > 1e-9 {
		t.Errorf("Reclaimed = %v, want %v", res.Reclaimed[0], want)
	}
	// The cheaper precision (speed, w/cr = 1/0.25 = 4) is shed before
	// steer (2/0.5 = 4)... equal ratios tie-break by task order: steer
	// first in task order but profit/cost equal → stable sort keeps
	// steer first. Verify the estimated utilization dropped to
	// bound − margin.
	if got := st.EstimatedUtilization(0); math.Abs((got - (0.7 - 0.03)).Float()) > 1e-9 {
		t.Errorf("estimated util after shed = %v, want %v", got, 0.67)
	}
}

func TestControllerIgnoresUnlatchedExcess(t *testing.T) {
	_, st := controllerSystem(t)
	ctl, err := New(st, Config{SaturationPeriods: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Only two violating observations: below the latch requirement.
	ctl.ObserveInner([]units.Util{0.9})
	ctl.ObserveInner([]units.Util{0.9})
	res, err := ctl.Step([]units.Util{0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reclaimed[0] != 0 {
		t.Errorf("Reclaimed = %v, want 0 before latch", res.Reclaimed[0])
	}
}

func TestRestorerFullCycle(t *testing.T) {
	_, st := controllerSystem(t)
	// High-speed phase: floors at 25/25, precision was shed to fit.
	st.SetRateFloor(0, 25)
	st.SetRateFloor(1, 25)
	ReduceRatios(st, 0, 0.08) // estimated util now 0.67
	ctl, err := New(st, Config{RestoreLeeway: 0.1, RestoreSlack: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Let the controller snapshot the high floors.
	if _, err := ctl.Step([]units.Util{0.67}); err != nil {
		t.Fatal(err)
	}
	if ctl.Restoring() {
		t.Fatal("restorer active without a floor drop")
	}
	// Deceleration: floors drop to 10. Rates stay at 25 (the paper's
	// stuck state) until the restorer bisects them.
	st.SetRateFloor(0, 10)
	st.SetRateFloor(1, 10)
	rounds := 0
	done := false
	for i := 0; i < 10 && !done; i++ {
		// Emulate a settled inner loop: measured = estimated.
		res, err := ctl.Step([]units.Util{st.EstimatedUtilization(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.RestoreRound > rounds {
			rounds = res.RestoreRound
		}
		done = res.RestoreDone
	}
	if !done {
		t.Fatal("restoration did not finish")
	}
	// All precision is back (capacity at floor rates is plentiful).
	for i := 0; i < 2; i++ {
		if a := st.Ratio(ref(i, 0)); a != 1 {
			t.Errorf("task %d ratio = %v, want fully restored", i, a)
		}
	}
	// The paper reports two rounds usually suffice.
	if rounds > 4 {
		t.Errorf("restoration took %d rounds, want a small number", rounds)
	}
	// Utilization headroom respected during restore: estimated util is
	// below the bound.
	if u := st.EstimatedUtilization(0); u > 0.7 {
		t.Errorf("estimated util after restore = %v, above bound", u)
	}
}

func TestRestorerNotTriggeredBySmallDrop(t *testing.T) {
	_, st := controllerSystem(t)
	st.SetRateFloor(0, 25)
	st.SetRateFloor(1, 25)
	ReduceRatios(st, 0, 0.08)
	ctl, err := New(st, Config{RestoreLeeway: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step([]units.Util{0.67}); err != nil {
		t.Fatal(err)
	}
	// 10% drop is within the 20% leeway: restorer must not chase it.
	st.SetRateFloor(0, 22.6)
	res, err := ctl.Step([]units.Util{0.67})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoreRound != 0 || ctl.Restoring() {
		t.Error("restorer chased a small floor variation")
	}
}

func TestControllerConfigValidation(t *testing.T) {
	_, st := controllerSystem(t)
	bad := []Config{
		{SaturationThreshold: -0.1},
		{SaturationPeriods: -1},
		{ReclaimMargin: -0.1},
		{RestoreLeeway: -0.1},
		{RestoreSlack: -0.1},
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		bad = append(bad,
			Config{SaturationThreshold: units.RawUtil(x)},
			Config{ReclaimMargin: units.RawUtil(x)},
			Config{RestoreLeeway: x},
			Config{RestoreSlack: units.RawUtil(x)},
			Config{RestoreEpsilon: units.RawUtil(x)},
		)
	}
	for i, cfg := range bad {
		if _, err := New(st, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestControllerDimensionMismatch(t *testing.T) {
	_, st := controllerSystem(t)
	ctl, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step([]units.Util{0.5, 0.5}); err == nil {
		t.Fatal("wrong utilization vector length accepted")
	}
}

func TestRestorerReactivatesOnSecondDrop(t *testing.T) {
	_, st := controllerSystem(t)
	st.SetRateFloor(0, 25)
	st.SetRateFloor(1, 25)
	ReduceRatios(st, 0, 0.08)
	ctl, err := New(st, Config{RestoreLeeway: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	step := func() Result {
		res, err := ctl.Step([]units.Util{st.EstimatedUtilization(0)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	step() // snapshot the high floors

	// First, shallow deceleration: at floors (23, 23) full precision would
	// load 0.69 ≈ the 0.70 bound, so only part of the precision returns.
	st.SetRateFloor(0, 23)
	st.SetRateFloor(1, 23)
	done := false
	for i := 0; i < 10 && !done; i++ {
		done = step().RestoreDone
	}
	if !done {
		t.Fatal("first restoration never finished")
	}
	firstPrecision := st.TotalPrecision()

	// Second, deeper deceleration: the restorer must fire again and
	// recover more precision.
	st.SetRateFloor(0, 10)
	st.SetRateFloor(1, 10)
	fired := false
	done = false
	for i := 0; i < 10 && !done; i++ {
		res := step()
		if res.RestoreRound > 0 {
			fired = true
		}
		done = res.RestoreDone
	}
	if !fired {
		t.Fatal("restorer did not reactivate on the second floor drop")
	}
	if st.TotalPrecision() < firstPrecision {
		t.Errorf("second restoration lost precision: %v -> %v", firstPrecision, st.TotalPrecision())
	}
}
