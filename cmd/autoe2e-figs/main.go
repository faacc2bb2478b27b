// Command autoe2e-figs regenerates the data behind every figure of the
// paper's evaluation section (Figures 3, 4, 8, 9, 10, 11, 12 plus the
// headline numbers and the middleware-overhead measurement). For each
// figure it writes CSV series under the output directory and prints a
// paper-vs-measured summary row.
//
// Independent scenario runs within a figure execute on a bounded worker
// pool (-workers); all printing and file writing happens serially in input
// order after the runs complete, so the output is byte-identical for every
// worker count (the determinism contract of internal/parallel, pinned by
// TestHarnessParallelByteIdentical). The overhead metric is the one
// exception: it measures wall-clock cost and always runs serially.
//
// Usage:
//
//	autoe2e-figs [-fig all|3|4|8|9|10|11|12|headline|overhead|fork] [-out results] [-seed N] [-workers N] [-fork-at S]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/precision"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/stats"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/vehicle/cosim"
	"github.com/autoe2e/autoe2e/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autoe2e-figs: ")
	fig := flag.String("fig", "all", "figure to regenerate: all | 3 | 4 | 8 | 9 | 10 | 11 | 12 | headline | overhead | fork")
	out := flag.String("out", "results", "output directory for CSV files")
	seed := flag.Int64("seed", 1, "execution-time noise seed")
	workers := flag.Int("workers", parallel.Workers(), "worker-pool width for independent scenario runs (1 = serial)")
	traceOutPath := flag.String("trace-out", "", "also append every retained run trace to this columnar binary file (convert with trace2csv)")
	flag.Float64Var(&forkAtSec, "fork-at", forkAtSec, "fork instant in seconds for the branching icy-road sweep (-fig fork)")
	flag.Parse()

	if *workers < 1 {
		log.Fatalf("-workers = %d, want >= 1", *workers)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if *traceOutPath != "" {
		f, err := os.Create(*traceOutPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		traceOut = colfmt.NewWriter(f)
	}
	figs := map[string]func(string, int64, int) error{
		"3":        fig3,
		"4":        fig4,
		"8":        fig8,
		"9":        fig9,
		"10":       fig10,
		"11":       fig11,
		"12":       fig12,
		"headline": headline,
		"overhead": overhead,
		"fork":     figFork,
	}
	order := []string{"3", "4", "8", "9", "10", "11", "12", "headline", "overhead", "fork"}
	if *fig != "all" {
		if _, ok := figs[*fig]; !ok {
			log.Fatalf("unknown figure %q", *fig)
		}
		order = []string{*fig}
	}
	for _, name := range order {
		fmt.Printf("\n======== Figure/metric %s ========\n", name)
		if err := figs[name](*out, *seed, *workers); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
	}
}

// meanWindow averages a series over [from, to) seconds without copying the
// samples out.
func meanWindow(s *trace.Series, from, to float64) float64 {
	lo, hi := s.WindowBounds(from, to)
	return stats.Mean(s.V[lo:hi])
}

// runPool wraps parallel.Map for harness stages whose items can fail: fn
// computes item i in the pool, results come back in input order, and the
// reported error is the lowest-indexed failure.
func runPool[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	type outcome struct {
		val T
		err error
	}
	outs := parallel.Map(n, workers, func(i int) outcome {
		v, err := fn(i)
		return outcome{v, err}
	})
	vals := make([]T, n)
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("item %d: %w", i, o.err)
		}
		vals[i] = o.val
	}
	return vals, nil
}

// writeCSV writes rows (with a header) to out/name.
func writeCSV(dir, name, header string, rows []string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, header); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(f, r); err != nil {
			return err
		}
	}
	fmt.Printf("  wrote %s\n", filepath.Join(dir, name))
	return nil
}

// traceOut, when -trace-out is set, accumulates every retained run trace
// as one columnar binary campaign file alongside the per-figure CSVs.
var traceOut *colfmt.Writer

// saveSeries dumps selected recorder series to a wide CSV and, with
// -trace-out, appends the run's complete trace to the campaign file.
func saveSeries(dir, name string, res *core.RunResult, series ...string) error {
	if traceOut != nil {
		if err := traceOut.WriteRun(res.Trace); err != nil {
			return err
		}
	}
	return saveSeriesCSV(dir, name, res, series...)
}

// saveSeriesCSV writes the wide CSV for selected recorder series.
func saveSeriesCSV(dir, name string, res *core.RunResult, series ...string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Trace.WriteWideCSV(f, series...); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", filepath.Join(dir, name))
	return nil
}

// sweep streams the configs over reusable per-worker sessions and hands
// each result, in input order, to use. The result is session-owned and
// valid only inside the callback — exactly right for the sweeps here,
// which keep one scalar or CSV row per run instead of every full trace.
func sweep(cfgs []core.RunConfig, workers int, use func(i int, res *core.RunResult)) error {
	i := 0
	next := func() (core.RunConfig, bool) {
		if i >= len(cfgs) {
			return core.RunConfig{}, false
		}
		cfg := cfgs[i]
		i++
		return cfg, true
	}
	var firstErr error
	core.RunStream(next, workers, func(j int, res *core.RunResult, err error) {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("run %d: %w", j, err)
			}
			return
		}
		if firstErr == nil {
			use(j, res)
		}
	})
	return firstErr
}

// fig3 — motivation: deadline miss ratio of the path-tracking task versus
// the steering MPC's execution-time growth (3a), and the trajectory under
// continuous misses (3b).
func fig3(dir string, seed int64, workers int) error {
	fmt.Println("  (a) T8 miss ratio vs MPC execution-time factor (OPEN, static rates)")
	factors := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 1.94, 2.1, 2.3, 2.5}
	cfgs := make([]core.RunConfig, len(factors))
	for i, factor := range factors {
		cfgs[i] = scenario.Motivation(factor, seed)
	}
	var rows []string
	err := sweep(cfgs, workers, func(i int, res *core.RunResult) {
		factor := factors[i]
		miss := res.MissRatio(workload.SimPathTracking)
		rows = append(rows, fmt.Sprintf("%.2f,%.1f,%.4f", factor, 12.1*factor, miss))
		fmt.Printf("      exec %5.1f ms (×%.2f): miss ratio %.3f\n", 12.1*factor, factor, miss)
	})
	if err != nil {
		return err
	}
	if err := writeCSV(dir, "fig3a.csv", "factor,exec_ms,t8_miss_ratio", rows); err != nil {
		return err
	}

	fmt.Println("  (b) trajectory under continuous misses (full-size car, OPEN, icy road)")
	mot, err := cosim.MotivationTrajectory(cosim.MotivationConfig{Seed: seed})
	if err != nil {
		return err
	}
	var traj []string
	for _, s := range mot.Samples {
		traj = append(traj, fmt.Sprintf("%.3f,%.4f,%.4f,%.4f", s.T, s.X, s.Y, s.RefY))
	}
	fmt.Printf("      max tracking error %.1f m at %.0f%% misses — Car A leaves its lane entirely\n",
		mot.MaxAbsErr, mot.MissRatio*100)
	return writeCSV(dir, "fig3b.csv", "t,x,y,ref_y", traj)
}

// fig4 — saturation and the execution-time/tracking-error trade-off.
func fig4(dir string, seed int64, workers int) error {
	fmt.Println("  (a) miss ratio vs determined path-tracking period (EUCON)")
	periods := []float64{40, 36, 32, 28, 24, 20}
	cfgs := make([]core.RunConfig, len(periods))
	for i, periodMs := range periods {
		cfgs[i] = scenario.SaturationSweep(periodMs, seed)
	}
	var rows []string
	err := sweep(cfgs, workers, func(i int, res *core.RunResult) {
		periodMs := periods[i]
		miss := res.OverallMissRatio()
		rows = append(rows, fmt.Sprintf("%.0f,%.4f", periodMs, miss))
		fmt.Printf("      period %2.0f ms: overall miss ratio %.4f\n", periodMs, miss)
	})
	if err != nil {
		return err
	}
	if err := writeCSV(dir, "fig4a.csv", "period_ms,miss_ratio", rows); err != nil {
		return err
	}

	fmt.Println("  (b) tracking error vs steering-MPC execution time (U-shape)")
	execs := []float64{3, 6, 9, 12, 16, 20, 24, 26, 28, 30}
	points, err := runPool(len(execs), workers, func(i int) (*cosim.TradeoffPoint, error) {
		return cosim.Tradeoff(execs[i], seed)
	})
	if err != nil {
		return err
	}
	var rows2 []string
	for i, p := range points {
		rows2 = append(rows2, fmt.Sprintf("%.0f,%d,%.4f,%.4f,%.4f",
			p.ExecMs, p.Horizon, p.MaxAbsErr, p.MeanAbsErr, p.MissRatio))
		fmt.Printf("      exec %2.0f ms (horizon %2d): max err %.3f m, miss %.3f\n",
			execs[i], p.Horizon, p.MaxAbsErr, p.MissRatio)
	}
	return writeCSV(dir, "fig4b.csv", "exec_ms,horizon,max_err_m,mean_err_m,miss_ratio", rows2)
}

// fig8 — testbed acceleration: EUCON vs AutoE2E utilizations, precision and
// miss ratio through the 100/200/320 s rate steps.
func fig8(dir string, seed int64, workers int) error {
	modes := []core.Mode{core.ModeEUCON, core.ModeAutoE2E}
	cfgs := make([]core.RunConfig, len(modes))
	for i, mode := range modes {
		cfgs[i] = scenario.TestbedAcceleration(mode, seed)
	}
	results, err := core.RunAll(cfgs, workers)
	if err != nil {
		return err
	}
	for i, mode := range modes {
		res := results[i]
		name := strings.ToLower(mode.String())
		if err := saveSeries(dir, "fig8_"+name+".csv", res,
			"util.ecu0", "util.ecu1", "util.ecu2",
			"precision.total", "missratio.overall", "missratio.t4"); err != nil {
			return err
		}
		late := meanWindow(res.Trace.Series("missratio.overall"), 350, 400)
		fmt.Printf("  %-8v overall miss %.3f (late-phase %.3f), final precision %.3f\n",
			mode, res.OverallMissRatio(), late, res.State.TotalPrecision())
	}
	fmt.Println("  paper: EUCON utils exceed bounds after the steps and reach ~1; AutoE2E holds the bounds")
	fmt.Println("  paper: EUCON T4 miss 0.1@200s → 0.45@320s; AutoE2E only brief transients")
	return nil
}

// fig9 — testbed restorer vs Direct Increase vs Optimal.
func fig9(dir string, seed int64, workers int) error {
	results, err := core.RunAll([]core.RunConfig{
		scenario.TestbedRestore(seed),
		scenario.TestbedRestoreDirectIncrease(seed, 0.1),
	}, workers)
	if err != nil {
		return err
	}
	restorer, direct := results[0], results[1]
	if err := saveSeries(dir, "fig9_restorer.csv", restorer,
		"util.ecu0", "util.ecu1", "util.ecu2", "precision.total"); err != nil {
		return err
	}
	if err := saveSeries(dir, "fig9_direct.csv", direct,
		"util.ecu0", "util.ecu1", "util.ecu2", "precision.total"); err != nil {
		return err
	}
	opt := scenario.TestbedOptimalPrecision()
	pr, pd := restorer.State.TotalPrecision(), direct.State.TotalPrecision()
	fmt.Printf("  restorer %.3f | direct increase %.3f | optimal %.3f\n", pr, pd, opt)
	fmt.Printf("  restorer is %.1f%% below optimal (paper: 7.7%%)\n", (1-pr/opt)*100)
	peak := func(r *core.RunResult) float64 {
		m := 0.0
		for j := 0; j < 3; j++ {
			s := r.Trace.Series(fmt.Sprintf("util.ecu%d", j))
			lo, hi := s.WindowBounds(10, 120)
			b := workload.Testbed().UtilBound[j].Float()
			if v := stats.Max(s.V[lo:hi]) - b; v > m {
				m = v
			}
		}
		return m
	}
	fmt.Printf("  peak over bound: restorer %.3f vs direct %.3f (paper: Direct Increase spikes, restorer none)\n",
		peak(restorer), peak(direct))
	return nil
}

// fig10 — control performance on the scaled car: lane-change trajectories
// and cruise-control error for the three arms.
func fig10(dir string, seed int64, workers int) error {
	modes := []core.Mode{core.ModeOpen, core.ModeEUCON, core.ModeAutoE2E}

	fmt.Println("  (a) double lane change")
	lanes, err := runPool(len(modes), workers, func(i int) (*cosim.LaneChangeResult, error) {
		return cosim.LaneChange(cosim.LaneChangeConfig{Mode: modes[i], Seed: seed})
	})
	if err != nil {
		return err
	}
	var laneRows []string
	for i, mode := range modes {
		res := lanes[i]
		for _, s := range res.Samples {
			laneRows = append(laneRows, fmt.Sprintf("%v,%.3f,%.4f,%.4f,%.4f", mode, s.T, s.X, s.Y, s.RefY))
		}
		fmt.Printf("      %-8v max err %.4f m, mean err %.4f m, steer miss %.3f\n",
			mode, res.MaxAbsErr, res.MeanAbsErr, res.SteerMissRatio)
	}
	if err := writeCSV(dir, "fig10a.csv", "arm,t,x,y,ref_y", laneRows); err != nil {
		return err
	}
	fmt.Println("      paper: AutoE2E max 5 cm; EUCON +12 cm max / +5 cm avg; OPEN diverges")

	fmt.Println("  (b) adaptive cruise control")
	cruises, err := runPool(len(modes), workers, func(i int) (*cosim.CruiseResult, error) {
		return cosim.Cruise(cosim.CruiseConfig{Mode: modes[i], Seed: seed})
	})
	if err != nil {
		return err
	}
	var cruiseRows []string
	for i, mode := range modes {
		res := cruises[i]
		for _, s := range res.Samples {
			cruiseRows = append(cruiseRows, fmt.Sprintf("%v,%.3f,%.4f,%.4f", mode, s.T, s.V, s.Ref))
		}
		fmt.Printf("      %-8v rms err %.4f m/s, steady-state cmd spike %.4f, miss %.3f\n",
			mode, res.RMSErr, res.MaxJerk, res.SpeedMissRatio)
	}
	fmt.Println("      paper: EUCON shows miss-induced spikes harmful to mechanical parts")
	return writeCSV(dir, "fig10b.csv", "arm,t,v,ref", cruiseRows)
}

// fig11 — larger-scale simulation acceleration.
func fig11(dir string, seed int64, workers int) error {
	modes := []core.Mode{core.ModeEUCON, core.ModeAutoE2E}
	cfgs := make([]core.RunConfig, len(modes))
	for i, mode := range modes {
		cfgs[i] = scenario.SimAcceleration(mode, seed)
	}
	results, err := core.RunAll(cfgs, workers)
	if err != nil {
		return err
	}
	for i, mode := range modes {
		res := results[i]
		name := strings.ToLower(mode.String())
		if err := saveSeries(dir, "fig11_"+name+".csv", res,
			"util.ecu0", "util.ecu1", "util.ecu2", "util.ecu3", "util.ecu4", "util.ecu5",
			"precision.total", "missratio.overall",
			fmt.Sprintf("missratio.t%d", int(workload.SimStability)+1)); err != nil {
			return err
		}
		ecu4 := meanWindow(res.Trace.Series("util.ecu3"), 45, 60)
		stab := meanWindow(res.Trace.Series(fmt.Sprintf("missratio.t%d", int(workload.SimStability)+1)), 45, 60)
		fmt.Printf("  %-8v settled chassis-ECU util %.3f, stability-task miss %.3f, final precision %.2f\n",
			mode, ecu4, stab, res.State.TotalPrecision())
	}
	fmt.Println("  paper: EUCON utils stay above bounds after 25s/37s and misses become sustained;")
	fmt.Println("  paper: AutoE2E shows only two short over-bound intervals and then holds the bounds")
	return nil
}

// fig12 — larger-scale restorer comparison.
func fig12(dir string, seed int64, workers int) error {
	results, err := core.RunAll([]core.RunConfig{
		scenario.SimRestore(seed),
		scenario.SimRestoreDirectIncrease(seed, 0.1),
	}, workers)
	if err != nil {
		return err
	}
	restorer, direct := results[0], results[1]
	if err := saveSeries(dir, "fig12_restorer.csv", restorer,
		"util.ecu3", "util.ecu5", "precision.total"); err != nil {
		return err
	}
	if err := saveSeries(dir, "fig12_direct.csv", direct,
		"util.ecu3", "util.ecu5", "precision.total"); err != nil {
		return err
	}
	opt := scenario.SimOptimalPrecision()
	pr, pd := restorer.State.TotalPrecision(), direct.State.TotalPrecision()
	fmt.Printf("  restorer %.3f | direct increase %.3f | optimal %.3f\n", pr, pd, opt)
	fmt.Printf("  restorer %.1f%% below optimal (paper: 3.9%%), %+.1f%% vs Direct Increase (paper: +12.9%%)\n",
		(1-pr/opt)*100, (pr/pd-1)*100)
	return nil
}

// headline — the paper's abstract numbers: average miss-ratio reduction
// versus EUCON and the precision cost, aggregated over the testbed and
// simulation acceleration experiments.
func headline(dir string, seed int64, workers int) error {
	type arm struct {
		name string
		cfg  func(core.Mode, int64) core.RunConfig
		full float64 // full-precision Σw
	}
	arms := []arm{
		{"testbed", scenario.TestbedAcceleration, 7.5},
		{"simulation", scenario.SimAcceleration, 21},
	}
	// Flatten to one pool: (arm × mode) runs are all independent.
	var cfgs []core.RunConfig
	for _, a := range arms {
		cfgs = append(cfgs, a.cfg(core.ModeEUCON, seed), a.cfg(core.ModeAutoE2E, seed))
	}
	results, err := core.RunAll(cfgs, workers)
	if err != nil {
		return err
	}
	var rows []string
	var missReductions, precisionDrops []float64
	for i, a := range arms {
		eucon, auto := results[2*i], results[2*i+1]
		me, ma := eucon.OverallMissRatio(), auto.OverallMissRatio()
		reduction := 0.0
		if me > 0 {
			reduction = (me - ma) / me
		}
		drop := 1 - auto.State.TotalPrecision()/a.full
		missReductions = append(missReductions, reduction)
		precisionDrops = append(precisionDrops, drop)
		rows = append(rows, fmt.Sprintf("%s,%.4f,%.4f,%.4f,%.4f", a.name, me, ma, reduction, drop))
		fmt.Printf("  %-11s EUCON miss %.4f → AutoE2E %.4f (−%.1f%%), precision cost %.1f%%\n",
			a.name, me, ma, reduction*100, drop*100)
	}
	fmt.Printf("  average miss-ratio reduction %.1f%% (paper: 35.4%%) at %.1f%% precision cost (paper: 24.3%%)\n",
		stats.Mean(missReductions)*100, stats.Mean(precisionDrops)*100)
	return writeCSV(dir, "headline.csv",
		"experiment,eucon_miss,autoe2e_miss,miss_reduction,precision_drop", rows)
}

// overhead — wall-clock cost of one middleware control decision (the paper
// measures < 10 ms on its testbed). Always serial: it measures time, and
// sharing cores with sibling runs would corrupt the measurement.
func overhead(dir string, seed int64, workers int) error {
	_ = workers
	sys := workload.Simulation()
	st := taskmodel.NewState(sys)
	inner, err := eucon.New(st, eucon.Config{})
	if err != nil {
		return err
	}
	outer, err := precision.New(st, precision.Config{})
	if err != nil {
		return err
	}
	utils := st.EstimatedUtilizations()
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := inner.Step(utils); err != nil {
			return err
		}
	}
	innerCost := time.Since(start) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		outer.ObserveInner(utils)
		if _, err := outer.Step(utils); err != nil {
			return err
		}
	}
	outerCost := time.Since(start) / iters
	fmt.Printf("  inner-loop MPC step:      %v per invocation\n", innerCost)
	fmt.Printf("  outer-loop control step:  %v per invocation\n", outerCost)
	fmt.Printf("  paper: total middleware overhead < 10 ms per control period\n")
	return writeCSV(dir, "overhead.csv", "loop,ns_per_step", []string{
		fmt.Sprintf("inner,%d", innerCost.Nanoseconds()),
		fmt.Sprintf("outer,%d", outerCost.Nanoseconds()),
	})
}

// forkAtSec is the -fork-at flag: the simulation instant the branching
// sweep forks the motivation run at.
var forkAtSec = 10.0

// figFork — the branching icy-road sweep: the motivation scenario (static
// rates, steering-MPC execution time ×1.94 from t = 5 s) runs its shared
// prefix exactly once to -fork-at, then every candidate path-tracking rate
// continues from a copy of the prefix as its own fork. Each continuation is
// byte-identical to a fresh 30 s run that applied the rate at the fork
// instant (the RunTree contract), so the sweep answers "which rate would
// have contained the icy-road misses?" for the cost of one prefix plus N
// tails.
func figFork(dir string, seed int64, workers int) error {
	rates := []units.Rate{25, 30, 35, 40, 45, 50, 55, 60}
	forkAt := simtime.At(forkAtSec)
	tc := core.TreeConfig{
		Base:    func() core.RunConfig { return scenario.Motivation(1.94, seed) },
		ForkAt:  forkAt,
		Forks:   make([]core.Fork, len(rates)),
		Workers: workers,
	}
	for i, rate := range rates {
		tc.Forks[i] = core.Fork{Mutate: func(st *taskmodel.State) {
			st.SetRate(workload.SimPathTracking, rate)
		}}
	}
	results, err := core.RunTree(tc)
	if err != nil {
		return err
	}
	fmt.Printf("  shared prefix to %.2f s, %d forked rate continuations to 30 s\n",
		forkAtSec, len(rates))
	var rows []string
	for i, rate := range rates {
		res := results[i]
		miss := res.MissRatio(workload.SimPathTracking)
		rows = append(rows, fmt.Sprintf("%.0f,%.4f,%.4f", rate.Float(), miss, res.OverallMissRatio()))
		fmt.Printf("      path-tracking %2.0f Hz from %.2f s: T8 miss %.3f, overall %.3f\n",
			rate.Float(), forkAtSec, miss, res.OverallMissRatio())
	}
	return writeCSV(dir, "forksweep.csv", "rate_hz,t8_miss_ratio,overall_miss_ratio", rows)
}
