package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
	"github.com/autoe2e/autoe2e/internal/units"
)

// reconcileShare is the largest share by which the layer times of the
// traced runs (substrate time plus control-tick time) may miss the run time
// of the same configs measured untraced (core.run_ms); the smoke test holds
// the traced run to it. The difference is the probe's own cost, which the
// layer times wrongly absorb, less Run's validation and reset before Attach,
// which they do not cover.
const reconcileShare = 0.10

// countingExec delegates to an execution-time model and counts the jobs it
// is asked to charge. It keeps the RandCarrier contract, so snapshot/fork
// still rewinds the wrapped model's random streams.
type countingExec struct {
	inner exectime.Model
	jobs  int64
}

func (c *countingExec) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration {
	c.jobs++
	return c.inner.Demand(sys, ref, now, ratio)
}

func (c *countingExec) Rands() []*simtime.Rand { return exectime.RandsOf(c.inner) }

// runProbe times one run's layers from outside the library. Attach installs
// a pre-band engine event at every inner-period instant, which opens a
// bracket before anything else runs at that instant; the OnInnerTick hook,
// which the middleware calls after its inner (and, every OuterEvery ticks,
// outer) step, closes it. Everything between brackets is substrate time:
// the engine and the scheduler. Same-instant job events that the engine
// orders before the control tick land inside the bracket, so tick times
// are a slight overestimate.
type runProbe struct {
	eng        *simtime.Engine
	period     simtime.Duration
	outerEvery int
	autoE2E    bool

	mark      time.Time // end of the last attributed segment
	tickStart time.Time
	ticks     []float64 // µs per inner-tick bracket
	outer     []float64 // µs per bracket in which the outer loop ran
	gap       time.Duration
	tick      time.Duration
	inner     int
	chains    int64
	exec      countingExec

	attach  func(eng *simtime.Engine, st *taskmodel.State)
	onInner func(now simtime.Time, utils []units.Util, st *taskmodel.State)
	onChain func(ev sched.ChainEvent)
}

func newRunProbe() *runProbe {
	p := &runProbe{}
	p.attach = func(eng *simtime.Engine, _ *taskmodel.State) {
		p.eng = eng
		p.mark = time.Now()
		eng.ScheduleCallPre(simtime.Time(p.period), probeFire, p)
	}
	p.onInner = func(simtime.Time, []units.Util, *taskmodel.State) {
		t := time.Now()
		d := t.Sub(p.tickStart)
		p.tick += d
		p.ticks = append(p.ticks, us(d))
		p.inner++
		if p.autoE2E && p.inner%p.outerEvery == 0 {
			p.outer = append(p.outer, us(d))
		}
		p.mark = t
	}
	p.onChain = func(sched.ChainEvent) { p.chains++ }
	return p
}

// probeFire opens a tick bracket and re-arms itself one inner period later.
func probeFire(now simtime.Time, arg any) {
	p := arg.(*runProbe)
	t := time.Now()
	p.gap += t.Sub(p.mark)
	p.tickStart = t
	p.eng.ScheduleCallPre(now.Add(p.period), probeFire, p)
}

// install returns cfg with the probe's hooks and job counter in place and
// resets the per-run totals (tick and outer samples accumulate across runs).
func (p *runProbe) install(cfg core.RunConfig) core.RunConfig {
	p.period = cfg.Middleware.InnerPeriod
	if p.period == 0 {
		p.period = simtime.Second
	}
	p.outerEvery = cfg.Middleware.OuterEvery
	if p.outerEvery == 0 {
		p.outerEvery = 10
	}
	p.autoE2E = cfg.Middleware.Mode == core.ModeAutoE2E
	p.gap, p.tick, p.inner, p.chains = 0, 0, 0, 0
	p.exec = countingExec{inner: cfg.Exec}
	cfg.Exec = &p.exec
	cfg.Attach = p.attach
	cfg.OnInnerTick = p.onInner
	cfg.OnChain = p.onChain
	return cfg
}

// runCounts are the exact per-run statistics read off a result.
type runCounts struct {
	missed, shed, restores, samples int64
}

func countsOf(res *core.RunResult) runCounts {
	var c runCounts
	for _, k := range res.Counters {
		c.missed += int64(k.Missed)
	}
	res.Trace.EachSeries(func(s *trace.Series) {
		c.samples += int64(s.Len())
		switch {
		case strings.HasPrefix(s.Name, "outer.reclaimed."):
			c.shed += int64(s.Len())
		case s.Name == "outer.restore_round":
			c.restores += int64(s.Len())
		}
	})
	return c
}

// verifyFresh re-runs cfg (which must carry a fresh execution model)
// through a fresh core.Run with job and chain counters attached, requires
// trace CSV, counters and final state to match got byte for byte, and
// returns the run's digest contribution.
func verifyFresh(cfg core.RunConfig, got *core.RunResult) (digest, error) {
	exec := &countingExec{inner: cfg.Exec}
	cfg.Exec = exec
	var chains int64
	cfg.OnChain = func(sched.ChainEvent) { chains++ }
	want, err := core.Run(cfg)
	if err != nil {
		return digest{}, err
	}
	if got == nil {
		return digest{}, fmt.Errorf("no result to compare")
	}
	if !bytes.Equal(fingerprint(got), fingerprint(want)) {
		return digest{}, fmt.Errorf("result differs from a fresh core.Run of the same config")
	}
	c := countsOf(want)
	return digest{runs: 1, jobs: exec.jobs, chains: chains, misses: c.missed,
		precision: want.State.TotalPrecision(), samples: c.samples}, nil
}

// verifyAll checks results[i] against a fresh run of mk(i) on the worker
// pool, counts mismatches as failed operations, and returns the digest of
// the whole set, accumulated in index order.
func verifyAll(b *bench, n int, mk func(i int) core.RunConfig, results []*core.RunResult) digest {
	ds := make([]digest, n)
	errs := make([]error, n)
	parallel.ForEach(n, workers, func(i int) {
		var got *core.RunResult
		if i < len(results) {
			got = results[i]
		}
		ds[i], errs[i] = verifyFresh(mk(i), got)
	})
	var d digest
	for i := range ds {
		if errs[i] != nil {
			b.fail("%s: verify run %d: %v", b.workload, i, errs[i])
			continue
		}
		d.add(ds[i])
	}
	return d
}

// layerReplay replays n of the workload's configs on one warm Session,
// each once untraced and once with the probe, and fills the library layer
// metrics. mk must build a fresh config (fresh random streams) per call.
// extend, if set, builds a longer run of the same shape for workloads
// whose own runs are too short to reach an outer-loop period.
func layerReplay(b *bench, n int, mk func(i int) core.RunConfig, extend func() core.RunConfig) {
	// Cold shape build: a fresh session's zero-length partial run builds
	// the engine, scheduler, state and middleware and nothing else.
	var rebuild []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := core.NewSession().RunPartial(mk(0), 0); err != nil {
			b.fail("%s: rebuild: %v", b.workload, err)
			return
		}
		rebuild = append(rebuild, ms(time.Since(t0)))
	}
	b.layer["core.rebuild_ms"] = quantile(rebuild, 0.5)

	s := core.NewSession()
	if _, err := s.Run(mk(0)); err != nil {
		b.fail("%s: replay warm-up: %v", b.workload, err)
		return
	}
	p := newRunProbe()
	var (
		plain, traced, clone, encode []float64
		residual, overhead           []float64 // per config, against plain
		encBytes                     float64
		dst                          *core.RunResult
		buf                          []byte
		gap, tick                    time.Duration
		jobs, chains, ticks          int64
		cnt                          runCounts
	)
	// runPlain and runTraced replay config i untraced and traced; their
	// order alternates by config, so that neither side always runs on the
	// caches the other left behind.
	var (
		tracedPrint []byte
		layered     float64 // ms of substrate plus tick time in the last traced run
	)
	runPlain := func(i int) bool {
		cfg := mk(i)
		t0 := time.Now()
		res, err := s.Run(cfg)
		plain = append(plain, ms(time.Since(t0)))
		if err != nil {
			b.fail("%s: replay %d: %v", b.workload, i, err)
			return false
		}
		t0 = time.Now()
		dst = res.CloneInto(dst)
		clone = append(clone, us(time.Since(t0)))
		t0 = time.Now()
		buf = colfmt.AppendRun(buf[:0], res.Trace)
		encode = append(encode, us(time.Since(t0)))
		encBytes += float64(len(buf))
		return true
	}
	runTraced := func(i int) bool {
		cfg := p.install(mk(i))
		t0 := time.Now()
		res, err := s.Run(cfg)
		wall := time.Since(t0)
		p.gap += time.Since(p.mark)
		if err != nil {
			b.fail("%s: traced replay %d: %v", b.workload, i, err)
			return false
		}
		traced = append(traced, ms(wall))
		layered = ms(p.gap + p.tick)
		tracedPrint = fingerprint(res)
		gap += p.gap
		tick += p.tick
		jobs += p.exec.jobs
		chains += p.chains
		ticks += int64(p.inner)
		c := countsOf(res)
		cnt.missed += c.missed
		cnt.shed += c.shed
		cnt.restores += c.restores
		cnt.samples += c.samples
		return true
	}
	for i := 0; i < n; i++ {
		var ok bool
		if i%2 == 0 {
			ok = runPlain(i) && runTraced(i)
		} else {
			ok = runTraced(i) && runPlain(i)
		}
		if !ok {
			continue
		}
		if !bytes.Equal(tracedPrint, fingerprint(dst)) {
			b.fail("%s: traced replay %d differs from the untraced one", b.workload, i)
		}
		p0 := plain[len(plain)-1]
		residual = append(residual, layered/p0-1)
		overhead = append(overhead, traced[len(traced)-1]/p0-1)
	}
	outerTicks := len(p.outer)
	b.layer["eucon.tick_us.p50"] = quantile(p.ticks, 0.5)
	b.layer["eucon.tick_us.p99"] = quantile(p.ticks, 0.99)
	if extend != nil && len(p.outer) == 0 {
		for i := 0; i < 4; i++ {
			if _, err := s.Run(p.install(extend())); err != nil {
				b.fail("%s: extended replay: %v", b.workload, err)
			}
		}
	}
	runs := float64(max(len(traced), 1))
	b.layer["core.run_ms.p50"] = quantile(plain, 0.5)
	b.layer["core.run_ms.p99"] = quantile(plain, 0.99)
	// Layer times come from the traced run of a config, its total from the
	// untraced run of the same config next to it; the median over configs
	// keeps a host stall in one short run from deciding the figure.
	resid := quantile(residual, 0.5)
	b.layer["core.reconcile_residual"] = resid
	b.layer["tracing.overhead_ratio"] = quantile(overhead, 0.5)
	b.layer["trace.clone_us.p50"] = quantile(clone, 0.5)
	b.layer["colfmt.encode_us.p50"] = quantile(encode, 0.5)
	b.layer["colfmt.bytes_per_run"] = encBytes / runs
	b.layer["substrate.ns_per_job"] = float64(gap) / float64(max(jobs, 1))
	b.layer["eucon.share"] = float64(tick) / float64(gap+tick)
	b.layer["precision.outer_tick_us.p50"] = quantile(p.outer, 0.5)
	b.layer["sched.jobs_per_run"] = float64(jobs) / runs
	b.layer["sched.chains_per_run"] = float64(chains) / runs
	b.layer["sched.missed_per_run"] = float64(cnt.missed) / runs
	b.layer["eucon.ticks_per_run"] = float64(ticks) / runs
	b.layer["precision.outer_ticks_per_run"] = float64(outerTicks) / runs
	b.layer["precision.shed_per_run"] = float64(cnt.shed) / runs
	b.layer["precision.restore_rounds_per_run"] = float64(cnt.restores) / runs
	b.layer["trace.samples_per_run"] = float64(cnt.samples) / runs
	if math.Abs(resid) > reconcileShare {
		b.note("layer times miss untraced run time by %+.1f%% (more than %.0f%%)",
			100*resid, 100*reconcileShare)
	}
}
