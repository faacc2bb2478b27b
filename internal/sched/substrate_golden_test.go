package sched_test

import (
	"bytes"
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
)

// runReference assembles a fresh engine, the naive Reference scheduler and
// the middleware by hand, independently of core.Session, and runs the
// scenario to its end. Scenario events are scheduled before the substrate
// starts, so their sequence numbers are minimal and they order exactly as
// the session's pre-band puts them. The middleware's inner-tick observer
// is not reachable from outside core, so a config that sets OnInnerTick
// is refused.
func runReference(t *testing.T, cfg core.RunConfig) *core.RunResult {
	t.Helper()
	if cfg.OnInnerTick != nil {
		t.Fatal("reference assembly does not support OnInnerTick")
	}
	eng := simtime.NewEngine()
	state := taskmodel.NewState(cfg.System)
	if cfg.Setup != nil {
		cfg.Setup(state)
	}
	ref := sched.NewReference(eng, state, sched.Config{
		Exec:      cfg.Exec,
		LinkDelay: cfg.LinkDelay,
		OnChain:   cfg.OnChain,
	})
	rec := trace.NewRecorder()
	mw, err := core.NewMiddleware(eng, ref, cfg.Middleware, rec)
	if err != nil {
		t.Fatalf("reference middleware: %v", err)
	}
	for _, ev := range cfg.Events {
		ev := ev
		eng.ScheduleCall(ev.At, func(simtime.Time, any) { ev.Do(state) }, nil)
	}
	if cfg.Attach != nil {
		cfg.Attach(eng, state)
	}
	ref.Start()
	mw.Start()
	eng.Run(simtime.Time(cfg.Duration))
	if err := mw.Err(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return &core.RunResult{Trace: rec, Counters: ref.CountersInto(nil), State: state}
}

// runOnSubstrate executes one scenario on either the pooled substrate
// (core.Run) or the reference one (runReference) and returns every
// observable output: the full CSV dump of the recorded time series, the
// ordered chain-event log, the final counters, and the final operating
// point.
func runOnSubstrate(t *testing.T, cfg core.RunConfig, reference bool) (csv []byte, chains []sched.ChainEvent, res *core.RunResult) {
	t.Helper()
	userOnChain := cfg.OnChain
	cfg.OnChain = func(ev sched.ChainEvent) {
		chains = append(chains, ev)
		if userOnChain != nil {
			userOnChain(ev)
		}
	}
	if reference {
		res = runReference(t, cfg)
	} else {
		var err error
		if res, err = core.Run(cfg); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV (reference=%v): %v", reference, err)
	}
	return buf.Bytes(), chains, res
}

// requireSubstrateEquivalence runs the scenario produced by mk on both
// substrates and requires byte-identical traces. mk must build a fresh
// RunConfig per call because execution-time models carry seeded RNG state.
func requireSubstrateEquivalence(t *testing.T, mk func() core.RunConfig) {
	t.Helper()
	pooledCSV, pooledChains, pooledRes := runOnSubstrate(t, mk(), false)
	refCSV, refChains, refRes := runOnSubstrate(t, mk(), true)

	if len(pooledChains) != len(refChains) {
		t.Fatalf("chain-event counts diverged: pooled %d, reference %d", len(pooledChains), len(refChains))
	}
	for i := range pooledChains {
		if pooledChains[i] != refChains[i] {
			t.Fatalf("chain event %d diverged:\n  pooled    %+v\n  reference %+v", i, pooledChains[i], refChains[i])
		}
	}
	for i := range pooledRes.Counters {
		if pooledRes.Counters[i] != refRes.Counters[i] {
			t.Fatalf("task %d counters diverged: pooled %+v, reference %+v", i, pooledRes.Counters[i], refRes.Counters[i])
		}
	}
	for i, r := range pooledRes.State.Rates() {
		if r != refRes.State.Rates()[i] {
			t.Fatalf("final rate of task %d diverged: pooled %v, reference %v", i, r, refRes.State.Rates()[i])
		}
	}
	if p, q := pooledRes.State.TotalPrecision(), refRes.State.TotalPrecision(); p != q {
		t.Fatalf("final total precision diverged: pooled %v, reference %v", p, q)
	}
	if !bytes.Equal(pooledCSV, refCSV) {
		t.Fatal("recorded time series diverged between pooled and reference substrates (CSV bytes differ)")
	}
}

// TestSubstrateGoldenClosedLoops is the end-to-end certification of the
// pooled discrete-event substrate: full closed-loop experiments — the
// Figure 3 motivation run, a Figure 4 saturation point, the Figure 9
// testbed restore, and the Figure 11 simulated acceleration under both
// EUCON and AutoE2E — must be byte-identical between the pooled scheduler
// and the retained naive reference, down to every recorded sample, chain
// event, counter, and the final operating point.
func TestSubstrateGoldenClosedLoops(t *testing.T) {
	cases := []struct {
		name string
		mk   func() core.RunConfig
	}{
		{"Motivation", func() core.RunConfig { return scenario.Motivation(1.94, 1) }},
		{"SaturationSweep", func() core.RunConfig { return scenario.SaturationSweep(20, 1) }},
		{"TestbedRestore", func() core.RunConfig { return scenario.TestbedRestore(1) }},
		{"SimAccelerationEUCON", func() core.RunConfig { return scenario.SimAcceleration(core.ModeEUCON, 1) }},
		{"SimAccelerationAutoE2E", func() core.RunConfig { return scenario.SimAcceleration(core.ModeAutoE2E, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			requireSubstrateEquivalence(t, tc.mk)
		})
	}
}
