package eucon

import (
	"math"
	"testing"

	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// The golden-equivalence suite pins the zero-allocation Controller to the
// naive Reference bit for bit: both implement the exact same arithmetic in
// the same accumulation order, so any divergence — even in the last ulp —
// means the optimized hot path leaked state between control periods
// (stale scratch, missed reset, aliased buffer). Scenarios mirror the
// paper's figures: steady acceleration load (Fig. 4), rate-floor swings
// that force saturation and restoration (Fig. 9), and larger synthetic
// systems (Fig. 11), plus fuzz-style randomized task sets.

// goldenEvent raises or lowers rate floors mid-scenario, modeling vehicle
// speed changes.
type goldenEvent struct {
	tick   int
	floors map[taskmodel.TaskID]units.Rate
}

// runGolden drives Controller and Reference through the same closed loop on
// independent copies of the same system and asserts bit-identical results
// every tick. noise, when non-nil, yields one multiplicative utilization
// perturbation per (tick, ECU), identical for both controllers.
func runGolden(t *testing.T, mkSys func() *taskmodel.System, cfg Config, ticks int, events []goldenEvent, noise func(tick, ecu int) float64) {
	t.Helper()
	sysA, sysB := mkSys(), mkSys()
	stA, stB := taskmodel.NewState(sysA), taskmodel.NewState(sysB)
	opt, err := New(stA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(stB, cfg)
	if err != nil {
		t.Fatal(err)
	}

	byTick := map[int]map[taskmodel.TaskID]units.Rate{}
	for _, ev := range events {
		byTick[ev.tick] = ev.floors
	}

	for k := 0; k < ticks; k++ {
		if floors, ok := byTick[k]; ok {
			for id, f := range floors {
				stA.SetRateFloor(id, f)
				stB.SetRateFloor(id, f)
			}
		}
		utilsA := stA.EstimatedUtilizations()
		utilsB := stB.EstimatedUtilizations()
		if noise != nil {
			for j := range utilsA {
				utilsA[j] = utilsA[j].Scale(noise(k, j))
				utilsB[j] = utilsB[j].Scale(noise(k, j))
			}
		}
		for j := range utilsA {
			if utilsA[j] != utilsB[j] {
				t.Fatalf("tick %d: utilization diverged before step: u[%d] = %v vs %v", k, j, utilsA[j], utilsB[j])
			}
		}
		resA, errA := opt.Step(utilsA)
		resB, errB := ref.Step(utilsB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("tick %d: error mismatch: %v vs %v", k, errA, errB)
		}
		if errA != nil {
			t.Fatalf("tick %d: step: %v", k, errA)
		}
		for ti := range resA.Rates {
			if resA.Rates[ti] != resB.Rates[ti] {
				t.Fatalf("tick %d: Rates[%d] = %v (optimized) vs %v (reference): bitwise divergence", k, ti, resA.Rates[ti], resB.Rates[ti])
			}
			if resA.Delta[ti] != resB.Delta[ti] {
				t.Fatalf("tick %d: Delta[%d] = %v vs %v: bitwise divergence", k, ti, resA.Delta[ti], resB.Delta[ti])
			}
			if resA.Saturated[ti] != resB.Saturated[ti] {
				t.Fatalf("tick %d: Saturated[%d] = %v vs %v", k, ti, resA.Saturated[ti], resB.Saturated[ti])
			}
		}
	}
}

// goldenScenario is one closed-loop scenario of the golden suite.
type goldenScenario struct {
	name   string
	mkSys  func() *taskmodel.System
	cfg    Config
	ticks  int
	events []goldenEvent
}

// goldenScenarios are the three paper-figure scenarios of the golden suite,
// shared with the KKT certification and the solver fuzz seeds.
var goldenScenarios = []goldenScenario{
	{
		name:  "testbed",
		mkSys: workload.Testbed,
		ticks: 70,
		events: []goldenEvent{
			{tick: 20, floors: map[taskmodel.TaskID]units.Rate{0: 40, 1: 35}},
			{tick: 45, floors: map[taskmodel.TaskID]units.Rate{0: 5, 1: 5}},
		},
	},
	{
		name:  "simulation",
		mkSys: workload.Simulation,
		cfg:   Config{BoundMargin: 0.02},
		ticks: 70,
		events: []goldenEvent{
			{tick: 10, floors: map[taskmodel.TaskID]units.Rate{0: 30, 2: 25}},
			{tick: 40, floors: map[taskmodel.TaskID]units.Rate{0: 2, 2: 2}},
		},
	},
	{
		name:  "synthetic",
		mkSys: func() *taskmodel.System { return workload.Synthetic(11, 6, 18) },
		cfg:   Config{PredictionHorizon: 5, ControlHorizon: 3, RefDecay: 0.4, OverloadWeight: 4},
		ticks: 50,
	},
}

func runGoldenScenario(t *testing.T, sc goldenScenario) {
	t.Helper()
	runGolden(t, sc.mkSys, sc.cfg, sc.ticks, sc.events, nil)
}

// TestGoldenAccelerationTestbed mirrors the Fig. 4 acceleration scenario on
// the testbed workload: floors rise mid-run, forcing the controller into
// saturation, then fall back.
func TestGoldenAccelerationTestbed(t *testing.T) {
	runGoldenScenario(t, goldenScenarios[0])
}

// TestGoldenRestoreSimulation mirrors the Fig. 9 restoration scenario on
// the simulation workload: a deep floor drop after a high-rate phase.
func TestGoldenRestoreSimulation(t *testing.T) {
	runGoldenScenario(t, goldenScenarios[1])
}

// TestGoldenSyntheticScale mirrors the Fig. 11 scalability setting: a
// larger randomized system under a non-default MPC configuration.
func TestGoldenSyntheticScale(t *testing.T) {
	runGoldenScenario(t, goldenScenarios[2])
}

// TestGoldenFuzzRandomized drives both controllers over randomized task
// sets with noisy utilization measurements and random floor events, all
// derived deterministically from simtime.Rand seeds.
func TestGoldenFuzzRandomized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		rng := simtime.NewRand(seed)
		numECUs := 2 + rng.Intn(5)
		numTasks := 2 + rng.Intn(12)
		mk := func() *taskmodel.System { return workload.Synthetic(seed*100, numECUs, numTasks) }

		// Pre-draw the noise table and floor events so both controllers
		// see the exact same float64 values.
		const ticks = 40
		noise := make([][]float64, ticks)
		for k := range noise {
			noise[k] = make([]float64, numECUs)
			for j := range noise[k] {
				noise[k][j] = 1 + rng.Gaussian(0, 0.05)
				if noise[k][j] < 0 {
					noise[k][j] = 0
				}
			}
		}
		var events []goldenEvent
		probe := mk()
		for e := 0; e < 3; e++ {
			id := taskmodel.TaskID(rng.Intn(numTasks))
			span := probe.Tasks[id].RateMax - probe.Tasks[id].RateMin
			events = append(events, goldenEvent{
				tick: rng.Intn(ticks),
				floors: map[taskmodel.TaskID]units.Rate{
					id: probe.Tasks[id].RateMin + span.Scale(rng.Float64()),
				},
			})
		}
		runGolden(t, mk, Config{}, ticks, events, func(k, j int) float64 { return noise[k][j] })
	}
}

// buildStacked materializes the full (P·n + M·m)-row stacked least-squares
// system that the pre-optimization controller solved, with identical row
// content. It is the independent oracle for the structured normal
// equations.
func buildStacked(c *Controller, f *linalg.Matrix, utils []units.Util, rho float64) (*linalg.Matrix, []float64) {
	sys := c.state.System()
	n, m := sys.NumECUs, len(sys.Tasks)
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	rows, cols := p*n+mh*m, mh*m
	a := linalg.NewMatrix(rows, cols)
	b := make([]float64, rows)
	row := 0
	for i := 1; i <= p; i++ {
		decay := pow(c.cfg.RefDecay, i)
		active := i
		if active > mh {
			active = mh
		}
		for j := 0; j < n; j++ {
			target := sys.UtilBound[j] - c.cfg.BoundMargin
			w := 1.0
			if utils[j] > target+0.02 {
				w = c.cfg.OverloadWeight
			}
			b[row] = w * (1 - decay) * utils[j].Headroom(target).Float()
			for l := 0; l < active; l++ {
				for ti := 0; ti < m; ti++ {
					a.Set(row, l*m+ti, w*f.At(j, ti))
				}
			}
			row++
		}
	}
	for i := 1; i <= mh; i++ {
		for ti := 0; ti < m; ti++ {
			a.Set(row, (i-1)*m+ti, rho)
			if i >= 2 {
				a.Set(row, (i-2)*m+ti, -rho)
			} else {
				b[row] = rho * c.prevDelta[ti]
			}
			row++
		}
	}
	return a, b
}

// TestNormalEquationsMatchStacked pins the structured O(n·m²) normal
// equations against the explicitly materialized stacked system: AᵀA and Aᵀb
// must agree to floating-point roundoff (the two use different summation
// orders, so the comparison is a tight tolerance, not bit identity — bit
// identity versus Reference is covered by the runGolden suite).
func TestNormalEquationsMatchStacked(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *taskmodel.System
		cfg  Config
	}{
		{"testbed", workload.Testbed(), Config{}},
		{"simulation", workload.Simulation(), Config{BoundMargin: 0.02}},
		{"synthetic", workload.Synthetic(3, 4, 9), Config{PredictionHorizon: 6, ControlHorizon: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := taskmodel.NewState(tc.sys)
			c, err := New(st, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A non-trivial prevDelta exercises the penalty RHS.
			for i := range c.prevDelta {
				c.prevDelta[i] = 0.1 * float64(i+1)
			}
			utils := st.EstimatedUtilizations()
			for j := range utils {
				utils[j] = utils[j].Scale(1.4) // push some ECUs over bound
			}

			loadMatrixInto(c.f, c.state)
			rho := controlPenaltyRho(c.f, c.cfg.ControlPenalty)
			normalEquations(c, utils, rho)

			a, b := buildStacked(c, c.f, utils, rho)
			wantATA := a.Transpose().Mul(a)
			wantATB := a.Transpose().MulVec(b)

			cols := c.ata.Cols()
			for r := 0; r < cols; r++ {
				for q := 0; q < cols; q++ {
					got, want := c.ata.At(r, q), wantATA.At(r, q)
					if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Fatalf("AᵀA[%d,%d] = %v, stacked oracle %v", r, q, got, want)
					}
				}
				if math.Abs(c.atb[r]-wantATB[r]) > 1e-9*math.Max(1, math.Abs(wantATB[r])) {
					t.Fatalf("Aᵀb[%d] = %v, stacked oracle %v", r, c.atb[r], wantATB[r])
				}
			}
		})
	}
}

// kktTol bounds the relative KKT residual of an exact solve: the largest
// violation over the gradient's own magnitude (see stackedKKT). The exact
// solve reaches about 2e-16 on these scenarios, rounding in the stacked
// products and the Cholesky solve, while an accelerated projected-gradient
// iterate stopped at its 1e-10 step tolerance reads 3e-12 to 7e-8 on the
// first tick of each.
const kktTol = 1e-14

// stackedKKT reports the KKT residual of x on the stacked problem a·x ≈ b
// on the box [lo, hi], relative to the magnitude of the terms that make up
// the gradient aᵀ(a·x − b): max_i Σ_r |a_ri|·(Σ_j |a_rj·x_j| + |b_r|).
func stackedKKT(a *linalg.Matrix, b, lo, hi, x []float64) float64 {
	scale := 0.0
	for i := 0; i < a.Cols(); i++ {
		s := 0.0
		for r := 0; r < a.Rows(); r++ {
			t := math.Abs(b[r])
			for j := 0; j < a.Cols(); j++ {
				t += math.Abs(a.At(r, j) * x[j])
			}
			s += math.Abs(a.At(r, i)) * t
		}
		scale = math.Max(scale, s)
	}
	if scale == 0 {
		return 0
	}
	return linalg.KKTResidual(a, b, lo, hi, x) / scale
}

// TestStepSatisfiesKKT certifies optimality of the optimized Step's move
// against the materialized stacked problem, independently of how the
// normal equations were formed: the full solution must satisfy the stacked
// system's KKT conditions to rounding. The stacked system carries the
// solver's ridge as √Ridge·I rows, so it is the exact problem solved. The
// scenarios are those of the golden suite on all three workload scales.
func TestStepSatisfiesKKT(t *testing.T) {
	ridge := linalg.DefaultBoxLSQOptions().Ridge
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			sys := sc.mkSys()
			st := taskmodel.NewState(sys)
			c, err := New(st, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			byTick := map[int]map[taskmodel.TaskID]units.Rate{}
			for _, ev := range sc.events {
				byTick[ev.tick] = ev.floors
			}
			m, mh := len(sys.Tasks), c.cfg.ControlHorizon
			worst := 0.0
			for k := 0; k < sc.ticks; k++ {
				for id, f := range byTick[k] {
					st.SetRateFloor(id, f)
				}
				utils := st.EstimatedUtilizations()
				// Snapshot pre-step inputs for the oracle.
				prevDelta := append([]float64(nil), c.prevDelta...)
				_, _, lo, hi, _, err := c.Problem(utils)
				if err != nil {
					t.Fatal(err)
				}
				f := linalg.NewMatrix(sys.NumECUs, m)
				loadMatrixInto(f, st)
				rho := controlPenaltyRho(f, c.cfg.ControlPenalty)
				oc := &Controller{state: st, cfg: c.cfg, prevDelta: prevDelta}
				a0, b0 := buildStacked(oc, f, utils, rho)
				a := linalg.NewMatrix(a0.Rows()+mh*m, mh*m)
				for r := 0; r < a0.Rows(); r++ {
					for j := 0; j < a0.Cols(); j++ {
						a.Set(r, j, a0.At(r, j))
					}
				}
				for j := 0; j < mh*m; j++ {
					a.Set(a0.Rows()+j, j, math.Sqrt(ridge))
				}
				b := append(b0, make([]float64, mh*m)...)

				if _, err := c.Step(utils); err != nil {
					t.Fatal(err)
				}
				res := stackedKKT(a, b, lo, hi, c.prevX)
				worst = math.Max(worst, res)
				if res > kktTol {
					t.Fatalf("tick %d: relative KKT residual %v of optimized solution vs stacked problem, want <= %v", k, res, kktTol)
				}
			}
			t.Logf("worst relative KKT residual over %d ticks: %.3g", sc.ticks, worst)
		})
	}
}

// TestStepSteadyStateZeroAlloc is the acceptance gate for the hot path: a
// warmed-up Controller.Step must not allocate at all.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	sys := workload.Simulation()
	st := taskmodel.NewState(sys)
	c, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	utils := st.EstimatedUtilizations()
	for k := 0; k < 5; k++ { // warm up buffers and warm-start state
		if _, err := c.Step(utils); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Step(utils); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v times per call, want 0", allocs)
	}
}

// TestDecentralizedParallelMatchesSerial pins the worker pool's determinism
// contract on the decentralized controller: any worker count produces
// bit-identical results to a serial run, including on systems large enough
// to cross the parallel threshold.
func TestDecentralizedParallelMatchesSerial(t *testing.T) {
	mk := func() *taskmodel.System { return workload.Synthetic(21, 8, 2*parallelThreshold) }
	sysA, sysB := mk(), mk()
	stA, stB := taskmodel.NewState(sysA), taskmodel.NewState(sysB)
	serial, err := NewDecentralized(stA, DecentralizedConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	para, err := NewDecentralized(stB, DecentralizedConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		utilsA := stA.EstimatedUtilizations()
		utilsB := stB.EstimatedUtilizations()
		resA, errA := serial.Step(utilsA)
		resB, errB := para.Step(utilsB)
		if errA != nil || errB != nil {
			t.Fatalf("tick %d: %v / %v", k, errA, errB)
		}
		for ti := range resA.Rates {
			if resA.Rates[ti] != resB.Rates[ti] || resA.Delta[ti] != resB.Delta[ti] || resA.Saturated[ti] != resB.Saturated[ti] {
				t.Fatalf("tick %d task %d: serial %v/%v/%v vs parallel %v/%v/%v",
					k, ti, resA.Rates[ti], resA.Delta[ti], resA.Saturated[ti],
					resB.Rates[ti], resB.Delta[ti], resB.Saturated[ti])
			}
		}
	}
}

// TestDecentralizedSteadyStateZeroAlloc pins the decentralized hot path
// below the parallel threshold (the serial regime used by the paper-scale
// systems).
func TestDecentralizedSteadyStateZeroAlloc(t *testing.T) {
	sys := workload.Simulation()
	st := taskmodel.NewState(sys)
	d, err := NewDecentralized(st, DecentralizedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	utils := st.EstimatedUtilizations()
	for k := 0; k < 3; k++ {
		if _, err := d.Step(utils); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Step(utils); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decentralized Step allocates %v times per call, want 0", allocs)
	}
}
