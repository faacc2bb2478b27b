package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// forkAt is where fork-testbed campaigns branch: 300 s into the 400 s
// Figure 8 acceleration.
const forkAt = 300 * simtime.Second

// forkFloors are the 32 (steer-by-wire, drive-by-wire) rate floors the
// branches apply at the fork instant.
var forkFloors = func() [][2]units.Rate {
	var out [][2]units.Rate
	for _, steer := range []units.Rate{30, 40, 50, 60, 70, 80, 90, 100} {
		for _, drive := range []units.Rate{40, 60, 80, 100} {
			out = append(out, [2]units.Rate{steer, drive})
		}
	}
	return out
}()

// forkTestbed is a closed-loop branching campaign: each campaign runs the
// Figure 8 testbed acceleration (3 ECUs, 4 tasks, 400 s) once to 300 s and
// continues 32 forks with distinct steer/drive rate floors from the
// snapshot, through core.RunTreeInto on two workers, with a fresh noise
// seed per campaign. One operation is one fork; lat_ms is a campaign's
// turnaround.
func forkTestbed(b *bench) error {
	var tmpl core.RunConfig
	cfgFor := func(seed int64) core.RunConfig {
		cfg := tmpl
		cfg.Exec = exectime.NewNoise(exectime.Nominal{}, scenario.ExecNoise, seed)
		return cfg
	}
	forks := make([]core.Fork, len(forkFloors))
	for i, f := range forkFloors {
		forks[i].Mutate = func(st *taskmodel.State) {
			st.SetRateFloor(workload.TestbedSteerByWire, f[0])
			st.SetRateFloor(workload.TestbedDriveByWire, f[1])
		}
	}
	// replay is the full run a fork must match: the base scenario with the
	// fork's mutation appended as an event at the fork instant.
	replay := func(seed int64, fork int) core.RunConfig {
		cfg := cfgFor(seed)
		cfg.Events = append(append([]core.Event(nil), tmpl.Events...),
			core.Event{At: simtime.Time(forkAt), Do: forks[fork].Mutate})
		return cfg
	}
	tree := func(seed int64, fs []core.Fork) core.TreeConfig {
		return core.TreeConfig{
			Base:    func() core.RunConfig { return cfgFor(seed) },
			ForkAt:  simtime.Time(forkAt),
			Forks:   fs,
			Workers: workers,
		}
	}

	// Set-up: a new System and one cold campaign, which gives every worker
	// slot its first run of the shape.
	var warm [2][]*core.RunResult
	setup, err := medianSetup(b, func(bool) error {
		tmpl = scenario.TestbedAcceleration(core.ModeAutoE2E, 0)
		var err error
		warm[0], err = core.RunTreeInto(tree(1, forks), nil)
		return err
	})
	if err != nil {
		return err
	}
	b.e2e["setup_s"] = setup
	// A second, untimed campaign sizes the result slots the second measured
	// campaign recycles; the first campaign's results are kept for
	// verification.
	if warm[1], err = core.RunTreeInto(tree(2, forks), nil); err != nil {
		return err
	}

	// The slices are sized past any run's needs, so the measured phase does
	// not grow them.
	var (
		seeds   = make([]int64, 0, 1<<12)
		first   []*core.RunResult
		recycle = warm[0]
		lat     = make([]float64, 0, 1<<12)
		runs    int64
		ops     forkTimes
	)
	ph := startPhase()
	deadline := ph.t0.Add(time.Duration(b.seconds * float64(time.Second)))
	for len(seeds) == 0 || time.Now().Before(deadline) {
		seed := b.runSeed()
		seeds = append(seeds, seed)
		t0 := time.Now()
		var res []*core.RunResult
		if b.traced {
			res, err = ops.campaign(tree(seed, forks), recycle)
		} else {
			res, err = core.RunTreeInto(tree(seed, forks), recycle)
		}
		lat = append(lat, ms(time.Since(t0)))
		b.attempted += int64(len(forks))
		if err != nil {
			b.fail("fork-testbed: campaign %d: %v", len(seeds)-1, err)
		}
		runs += int64(len(forks))
		if len(seeds) == 1 {
			first, res = res, warm[1]
		}
		recycle = res
	}
	ph.finish(b, runs)
	b.e2e["lat_ms.p50"] = quantile(lat, 0.5)
	b.e2e["lat_ms.p95"] = quantile(lat, 0.95)
	b.note("%d forks in %d campaigns; lat_ms over %d campaigns; lat_ms.p99 %.4g", runs, len(seeds), len(lat), quantile(lat, 0.99))

	// Verification: every fork of the first campaign (the digest set) and
	// a sample of the last, each against a full fresh replay with the
	// fork's mutation applied at 300 s.
	if b.corrupt && len(first) > 0 && first[0] != nil {
		first[0].Counters[0].Missed++
	}
	b.digest = verifyAll(b, len(forks), func(i int) core.RunConfig { return replay(seeds[0], i) }, first)
	if len(seeds) > 1 {
		lastSeed := seeds[len(seeds)-1]
		sample := []int{0, 11, 22, 31}
		lastRes := make([]*core.RunResult, len(sample))
		for i, f := range sample {
			if f < len(recycle) {
				lastRes[i] = recycle[f]
			}
		}
		verifyAll(b, len(sample), func(i int) core.RunConfig { return replay(lastSeed, sample[i]) }, lastRes)
	}

	if b.traced {
		n := len(forks)
		layerReplay(b, n, func(i int) core.RunConfig { return replay(seeds[0], i%n) }, nil)
		ops.report(b)
	}
	return nil
}

// forkTimes times a branching campaign the way core.RunTree runs it, by
// calling the Session branch points directly: the shared prefix and its
// snapshot on one session, then each fork restored and resumed on one of
// two worker sessions.
type forkTimes struct {
	sessions               [workers]*core.Session
	cp                     *core.Checkpoint
	prefix, snap           []float64 // ms, µs
	restore, resume, clone []float64 // µs, ms, µs
	busy                   time.Duration
	wall                   time.Duration
}

func (ft *forkTimes) campaign(tc core.TreeConfig, recycle []*core.RunResult) ([]*core.RunResult, error) {
	for i := range ft.sessions {
		if ft.sessions[i] == nil {
			ft.sessions[i] = core.NewSession()
		}
	}
	start := time.Now()
	s0 := ft.sessions[0]
	t0 := time.Now()
	err := s0.RunPartial(tc.Base(), tc.ForkAt)
	t1 := time.Now()
	if err == nil {
		ft.cp, err = s0.SnapshotInto(ft.cp)
	}
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	ft.prefix = append(ft.prefix, ms(t1.Sub(t0)))
	ft.snap = append(ft.snap, us(t2.Sub(t1)))
	busy := t2.Sub(t0)

	results := make([]*core.RunResult, len(tc.Forks))
	errs := make([]error, len(tc.Forks))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := range ft.sessions {
		wg.Add(1)
		go func(s *core.Session) {
			defer wg.Done()
			var restore, resume, clone []float64
			var spent time.Duration
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(tc.Forks) {
					break
				}
				t0 := time.Now()
				err := s.Restore(ft.cp)
				t1 := time.Now()
				var res *core.RunResult
				if err == nil {
					cfg := tc.Base()
					cfg.System = nil
					cfg.Events = []core.Event{{At: tc.ForkAt, Do: tc.Forks[i].Mutate}}
					res, err = s.Resume(cfg)
				}
				t2 := time.Now()
				if err == nil {
					var dst *core.RunResult
					if i < len(recycle) {
						dst = recycle[i]
					}
					results[i] = res.CloneInto(dst)
				}
				t3 := time.Now()
				errs[i] = err
				restore = append(restore, us(t1.Sub(t0)))
				resume = append(resume, ms(t2.Sub(t1)))
				clone = append(clone, us(t3.Sub(t2)))
				spent += t3.Sub(t0)
			}
			mu.Lock()
			ft.restore = append(ft.restore, restore...)
			ft.resume = append(ft.resume, resume...)
			ft.clone = append(ft.clone, clone...)
			busy += spent
			mu.Unlock()
		}(ft.sessions[w])
	}
	wg.Wait()
	ft.busy += busy
	ft.wall += time.Since(start)
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("fork %d: %w", i, err)
		}
	}
	return results, nil
}

// report sets the branch-point figures measured on the real campaigns.
func (ft *forkTimes) report(b *bench) {
	b.layer["core.prefix_ms"] = quantile(ft.prefix, 0.5)
	b.layer["core.snapshot_us"] = quantile(ft.snap, 0.5)
	b.layer["core.restore_us"] = quantile(ft.restore, 0.5)
	b.layer["core.resume_ms.p50"] = quantile(ft.resume, 0.5)
	b.layer["trace.clone_us.p50"] = quantile(ft.clone, 0.5)
	b.layer["parallel.busy_ratio"] = ft.busy.Seconds() / (workers * ft.wall.Seconds())
}
