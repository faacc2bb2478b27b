package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
)

// observedRun is one run's complete observable output, copied out of the
// producing runner so session reuse cannot alias it.
type observedRun struct {
	csv       []byte
	chains    []sched.ChainEvent
	counters  []sched.TaskCounter
	rates     []float64
	precision float64
	solver    eucon.SolveStats
}

func observe(t *testing.T, res *core.RunResult, chains []sched.ChainEvent) observedRun {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rates := make([]float64, len(res.State.Rates()))
	for i, r := range res.State.Rates() {
		rates[i] = r.Float()
	}
	return observedRun{
		csv:       buf.Bytes(),
		chains:    chains,
		counters:  append([]sched.TaskCounter(nil), res.Counters...),
		rates:     rates,
		precision: res.State.TotalPrecision(),
		solver:    res.Solver,
	}
}

// runFresh executes the scenario through core.Run, a fresh Session used
// once, so every comparison against it checks that a reused session's
// reset leaves nothing behind.
func runFresh(t *testing.T, cfg core.RunConfig) observedRun {
	t.Helper()
	var chains []sched.ChainEvent
	userOnChain := cfg.OnChain
	cfg.OnChain = func(ev sched.ChainEvent) {
		chains = append(chains, ev)
		if userOnChain != nil {
			userOnChain(ev)
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return observe(t, res, chains)
}

// runOnSession executes the scenario on the reusable session.
func runOnSession(t *testing.T, s *core.Session, cfg core.RunConfig) observedRun {
	t.Helper()
	var chains []sched.ChainEvent
	userOnChain := cfg.OnChain
	cfg.OnChain = func(ev sched.ChainEvent) {
		chains = append(chains, ev)
		if userOnChain != nil {
			userOnChain(ev)
		}
	}
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("Session.Run: %v", err)
	}
	return observe(t, res, chains)
}

func requireRunsIdentical(t *testing.T, label string, want, got observedRun) {
	t.Helper()
	if len(want.chains) != len(got.chains) {
		t.Fatalf("%s: chain-event counts diverged: fresh %d, session %d", label, len(want.chains), len(got.chains))
	}
	for i := range want.chains {
		if want.chains[i] != got.chains[i] {
			t.Fatalf("%s: chain event %d diverged:\n  fresh   %+v\n  session %+v", label, i, want.chains[i], got.chains[i])
		}
	}
	for i := range want.counters {
		if want.counters[i] != got.counters[i] {
			t.Fatalf("%s: task %d counters diverged: fresh %+v, session %+v", label, i, want.counters[i], got.counters[i])
		}
	}
	for i := range want.rates {
		if want.rates[i] != got.rates[i] {
			t.Fatalf("%s: final rate of task %d diverged: fresh %v, session %v", label, i, want.rates[i], got.rates[i])
		}
	}
	if want.precision != got.precision {
		t.Fatalf("%s: final total precision diverged: fresh %v, session %v", label, want.precision, got.precision)
	}
	if want.solver != got.solver {
		t.Fatalf("%s: inner solver totals diverged: fresh %+v, session %+v", label, want.solver, got.solver)
	}
	if !bytes.Equal(want.csv, got.csv) {
		t.Fatalf("%s: recorded time series diverged between fresh Run and Session (CSV bytes differ)", label)
	}
}

// TestSessionGoldenClosedLoops certifies the reusable batch runner: the
// same closed-loop scenarios the substrate golden tests pin must be
// byte-identical between core.Run (a fresh session used once) and a reused
// core.Session — on the session's cold first run AND on warm reuse runs,
// where every component is reset in place instead of rebuilt. mk builds a fresh config
// per call because execution-time models carry seeded RNG state.
func TestSessionGoldenClosedLoops(t *testing.T) {
	cases := []struct {
		name string
		mk   func() core.RunConfig
	}{
		{"Motivation", func() core.RunConfig { return Motivation(1.94, 1) }},
		{"SaturationSweep", func() core.RunConfig { return SaturationSweep(20, 1) }},
		{"TestbedRestore", func() core.RunConfig { return TestbedRestore(1) }},
		{"SimAccelerationEUCON", func() core.RunConfig { return SimAcceleration(core.ModeEUCON, 1) }},
		{"SimAccelerationAutoE2E", func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fresh := runFresh(t, tc.mk())
			s := core.NewSession()
			first := tc.mk()
			cold := runOnSession(t, s, first)
			requireRunsIdentical(t, "cold session", fresh, cold)
			for i := 0; i < 2; i++ {
				// The session keys its warm path on the *System pointer, so
				// a repeat must carry the first run's System to reuse it.
				cfg := tc.mk()
				cfg.System = first.System
				warm := runOnSession(t, s, cfg)
				requireRunsIdentical(t, "warm reuse", fresh, warm)
			}
		})
	}
}

// TestSessionGoldenAcrossShapes drives ONE session through scenarios with
// different task systems and middleware configurations back to back — each
// switch exercises the rebuild path, each repeat the warm path — and
// requires every run to match its fresh-Run golden regardless of what the
// session executed before it.
func TestSessionGoldenAcrossShapes(t *testing.T) {
	steps := []struct {
		mk func() core.RunConfig
		// warm repeats the previous step on its System, so the session
		// takes its warm path instead of rebuilding.
		warm bool
	}{
		{mk: func() core.RunConfig { return Motivation(1.94, 1) }},
		{mk: func() core.RunConfig { return Motivation(1.94, 1) }, warm: true},
		{mk: func() core.RunConfig { return TestbedRestore(1) }},
		{mk: func() core.RunConfig { return SimAcceleration(core.ModeEUCON, 1) }},
		{mk: func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, 1) }},
		{mk: func() core.RunConfig { return TestbedRestore(1) }},
	}
	s := core.NewSession()
	var prev core.RunConfig
	for _, st := range steps {
		fresh := runFresh(t, st.mk())
		cfg := st.mk()
		if st.warm {
			cfg.System = prev.System
		}
		got := runOnSession(t, s, cfg)
		requireRunsIdentical(t, "shape sequence", fresh, got)
		prev = cfg
	}
}

// TestSessionGoldenFuzzReuse hammers warm sessions with randomized
// back-to-back runs — random scenario, random seed, random duration knob
// where the scenario offers one — comparing each against a fresh Run of an
// identically-built config. This is the adversarial sweep for cross-run
// state leakage: any buffer not reset, any counter not rewound, any stale
// event surviving in the engine shows up as a byte diff.
//
// Each (scenario, mode) keeps one session and one *System across rounds —
// every constructor here builds its System independently of the drawn knob
// — so every repeat of a kind takes the session's warm path, which keys on
// the System pointer and the middleware config.
func TestSessionGoldenFuzzReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz reuse sweep is slow")
	}
	rng := simtime.NewRand(7)
	type warmKind struct {
		s   *core.Session
		sys *taskmodel.System
	}
	var kinds [5]warmKind
	const rounds = 12
	for round := 0; round < rounds; round++ {
		seed := int64(rng.Intn(1000)) + 1
		var mk func() core.RunConfig
		kind := rng.Intn(4)
		switch kind {
		case 0:
			factor := 1.0 + rng.Float64()
			mk = func() core.RunConfig { return Motivation(factor, seed) }
		case 1:
			period := 10 + rng.Float64()*20
			mk = func() core.RunConfig { return SaturationSweep(period, seed) }
		case 2:
			mk = func() core.RunConfig { return TestbedRestore(seed) }
		default:
			mode := core.ModeEUCON
			if rng.Intn(2) == 1 {
				mode = core.ModeAutoE2E
				kind = 4
			}
			mk = func() core.RunConfig { return SimAcceleration(mode, seed) }
		}
		fresh := runFresh(t, mk())
		k := &kinds[kind]
		cfg := mk()
		if k.s == nil {
			k.s, k.sys = core.NewSession(), cfg.System
		} else {
			cfg.System = k.sys
		}
		got := runOnSession(t, k.s, cfg)
		requireRunsIdentical(t, fmt.Sprintf("fuzz round %d", round), fresh, got)
	}
}
