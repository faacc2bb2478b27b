package scenario

import (
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/simtime"
)

// Budgets for the inner MPC solves of the EXPERIMENTS.md figure scenarios:
// the most free-block factorizations one solve may take, and the most per
// solve on average over a run. A warm-started active-set solve usually
// needs one factorization. The rate and precision steps of Figures 9 and 12
// move many rates between their bounds in one period, one set change per
// factorization (Figure 12's Direct Increase arm peaks at 27 on seed 1).
const (
	figureSolveBudget     = 32
	figureMeanSolveBudget = 6.0
)

// TestFigureSolvesConverge runs the scenario-package configurations of the
// paper figures (seed 1, the autoe2e-figs default; the Figure 3 and 4
// sweeps at their operating and end points) and checks the inner solver's
// totals: one solve per inner period whenever the MPC runs, none for OPEN,
// and no solve beyond the factorization budgets. A solve that does not
// converge fails its run, so a clean run is itself the convergence
// certificate; the vehicle co-simulation figures (4b, 10) fail the same
// way in internal/vehicle/cosim.
func TestFigureSolvesConverge(t *testing.T) {
	type figRun struct {
		name string
		cfg  core.RunConfig
	}
	runs := []figRun{
		{"fig3a OPEN", Motivation(1.94, 1)},
		{"fig4a period=20ms", SaturationSweep(20, 1)},
		{"fig4a period=40ms", SaturationSweep(40, 1)},
		{"fig8 EUCON", TestbedAcceleration(core.ModeEUCON, 1)},
		{"fig8 AutoE2E", TestbedAcceleration(core.ModeAutoE2E, 1)},
		{"fig9 restorer", TestbedRestore(1)},
		{"fig9 direct", TestbedRestoreDirectIncrease(1, 0.1)},
		{"fig11 EUCON", SimAcceleration(core.ModeEUCON, 1)},
		{"fig11 AutoE2E", SimAcceleration(core.ModeAutoE2E, 1)},
		{"fig12 restorer", SimRestore(1)},
		{"fig12 direct", SimRestoreDirectIncrease(1, 0.1)},
	}
	cfgs := make([]core.RunConfig, len(runs))
	for i := range runs {
		cfgs[i] = runs[i].cfg
	}
	results, err := core.RunAll(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		s := results[i].Solver
		period := r.cfg.Middleware.InnerPeriod
		if period == 0 {
			period = simtime.Second
		}
		want := 0
		if r.cfg.Middleware.Mode != core.ModeOpen {
			want = int(r.cfg.Duration / period)
		}
		t.Logf("%-18s solves %4d  factorizations %4d (max %2d)",
			r.name, s.Solves, s.Factorizations, s.MaxFactorizations)
		if s.Solves != want {
			t.Errorf("%s: %d solves, want one per inner period (%d)", r.name, s.Solves, want)
		}
		if s.MaxFactorizations > figureSolveBudget {
			t.Errorf("%s: a solve took %d factorizations, budget %d", r.name, s.MaxFactorizations, figureSolveBudget)
		}
		if mean := float64(s.Factorizations) / float64(max(s.Solves, 1)); mean > figureMeanSolveBudget {
			t.Errorf("%s: %.2f factorizations per solve, budget %.0f", r.name, mean, figureMeanSolveBudget)
		}
	}
}
