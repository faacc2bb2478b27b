package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// sessionCSV renders a result's trace for byte comparison.
func sessionCSV(t *testing.T, res *RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionEventsReRegistration: scripted events belong to one run only.
// A reused session must fire exactly the new run's events — never a stale
// event from the previous run — and a run without events must see none.
func TestSessionEventsReRegistration(t *testing.T) {
	sys := testSystem(t)
	base := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   5 * simtime.Second,
	}
	s := NewSession()

	var firstFired, secondFired int
	withEvents := base
	withEvents.Events = []Event{
		{At: simtime.At(1), Do: func(*taskmodel.State) { firstFired++ }},
		{At: simtime.At(2), Do: func(*taskmodel.State) { firstFired++ }},
	}
	if _, err := s.Run(withEvents); err != nil {
		t.Fatal(err)
	}
	if firstFired != 2 {
		t.Fatalf("first run fired %d events, want 2", firstFired)
	}

	// No events: nothing from the previous run may fire.
	if _, err := s.Run(base); err != nil {
		t.Fatal(err)
	}
	if firstFired != 2 {
		t.Fatalf("event-free reuse re-fired stale events (count %d, want 2)", firstFired)
	}

	// Different events: only the new ones fire.
	replaced := base
	replaced.Events = []Event{
		{At: simtime.At(3), Do: func(*taskmodel.State) { secondFired++ }},
	}
	if _, err := s.Run(replaced); err != nil {
		t.Fatal(err)
	}
	if firstFired != 2 || secondFired != 1 {
		t.Fatalf("replacement run fired first=%d second=%d, want 2 and 1", firstFired, secondFired)
	}
}

// TestSessionHookSwap: the OnChain and OnInnerTick observers are per-run
// state. Swapping them between runs must route every callback of a run to
// that run's hooks only, and a nil hook must disable observation entirely.
func TestSessionHookSwap(t *testing.T) {
	sys := testSystem(t)
	base := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, InnerPeriod: simtime.Second},
		Duration:   5 * simtime.Second,
	}
	s := NewSession()

	var chainA, innerA int
	cfgA := base
	cfgA.OnChain = func(sched.ChainEvent) { chainA++ }
	cfgA.OnInnerTick = func(simtime.Time, []units.Util, *taskmodel.State) { innerA++ }
	if _, err := s.Run(cfgA); err != nil {
		t.Fatal(err)
	}
	if chainA == 0 || innerA == 0 {
		t.Fatalf("first run hooks not called: chain=%d inner=%d", chainA, innerA)
	}
	wantChain, wantInner := chainA, innerA

	var chainB, innerB int
	cfgB := base
	cfgB.OnChain = func(sched.ChainEvent) { chainB++ }
	cfgB.OnInnerTick = func(simtime.Time, []units.Util, *taskmodel.State) { innerB++ }
	if _, err := s.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	if chainA != wantChain || innerA != wantInner {
		t.Error("second run leaked callbacks into the first run's hooks")
	}
	if chainB != wantChain || innerB != wantInner {
		t.Errorf("swapped hooks saw chain=%d inner=%d, want %d and %d (identical runs)", chainB, innerB, wantChain, wantInner)
	}

	// Nil hooks: observation off, no stale hook from the previous run.
	if _, err := s.Run(base); err != nil {
		t.Fatal(err)
	}
	if chainA != wantChain || chainB != wantChain || innerA != wantInner || innerB != wantInner {
		t.Error("nil-hook run invoked a previous run's hooks")
	}
}

// TestSessionErroredRunThenCleanReuse: a run that fails mid-flight through
// the middleware error path (engine stopped early, scheduler mid-run) must
// leave the session fully recoverable — the next run produces exactly what
// a fresh Run produces.
func TestSessionErroredRunThenCleanReuse(t *testing.T) {
	sys := testSystem(t)
	cfg := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, InnerPeriod: simtime.Second},
		Duration:   10 * simtime.Second,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := sessionCSV(t, want)

	s := NewSession()
	if _, err := s.Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Sabotage the inner controller so the next run fails at its first
	// tick, stopping the engine mid-run with live scheduler state.
	healthy := s.mw.inner
	s.mw.inner = failingController{}
	if _, err := s.Run(cfg); err == nil {
		t.Fatal("sabotaged run reported no error")
	} else if !strings.Contains(err.Error(), "injected controller failure") {
		t.Fatalf("sabotaged run error = %v, want the injected cause", err)
	}
	s.mw.inner = healthy

	got, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("reuse after errored run: %v", err)
	}
	if !bytes.Equal(wantCSV, sessionCSV(t, got)) {
		t.Fatal("run after errored run diverged from fresh Run (CSV bytes differ)")
	}
	for i := range want.Counters {
		if want.Counters[i] != got.Counters[i] {
			t.Fatalf("task %d counters diverged after errored-run recovery: %+v != %+v", i, got.Counters[i], want.Counters[i])
		}
	}
}

// TestSessionSteadyStateZeroAlloc is the headline memory-discipline gate:
// once a session is warm, whole runs — engine, scheduler, middleware, MPC,
// trace recording — allocate nothing.
func TestSessionSteadyStateZeroAlloc(t *testing.T) {
	sys := testSystem(t)
	cfg := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second},
		Duration:   10 * simtime.Second,
	}
	s := NewSession()
	for i := 0; i < 3; i++ {
		if _, err := s.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Session.Run allocates %v allocs/op, want 0", allocs)
	}
}

// TestSessionValidatesLikeRun: the session front-loads exactly Run's
// validation, and a rejected config must not poison a built session.
func TestSessionValidatesLikeRun(t *testing.T) {
	sys := testSystem(t)
	good := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   2 * simtime.Second,
	}
	s := NewSession()
	if _, err := s.Run(good); err != nil {
		t.Fatal(err)
	}
	bad := []RunConfig{
		func() RunConfig { c := good; c.System = nil; return c }(),
		func() RunConfig { c := good; c.Exec = nil; return c }(),
		func() RunConfig { c := good; c.Duration = 0; return c }(),
		func() RunConfig { c := good; c.Events = []Event{{At: simtime.At(1)}}; return c }(),
		func() RunConfig { c := good; c.Middleware.OuterEvery = -1; return c }(),
	}
	for i, c := range bad {
		if _, err := s.Run(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := s.Run(good); err != nil {
		t.Fatalf("session poisoned by rejected configs: %v", err)
	}
}

// TestResumeMiddlewareMustMatch: a continuation config may leave
// Middleware zero or repeat the session's (normalized) config; any other
// Middleware is rejected before the session is touched, since the live
// controllers cannot be swapped mid-run. Both accepted forms stay
// byte-identical to a fresh run.
func TestResumeMiddlewareMustMatch(t *testing.T) {
	sys := testSystem(t)
	// The in-place continuation keeps drawing from the prefix's noise
	// stream, so each session's configs share one Exec.
	var exec exectime.Model
	mk := func(mw Config) RunConfig {
		return RunConfig{
			System:     sys,
			Exec:       exec,
			Middleware: mw,
			Duration:   12 * simtime.Second,
		}
	}
	exec = exectime.NewNoise(exectime.Nominal{}, 0.3, 5)
	fresh, err := Run(mk(Config{Mode: ModeAutoE2E}))
	if err != nil {
		t.Fatal(err)
	}
	want := sessionCSV(t, fresh)

	for _, cont := range []Config{{}, {Mode: ModeAutoE2E, InnerPeriod: simtime.Second, OuterEvery: 10}} {
		exec = exectime.NewNoise(exectime.Nominal{}, 0.3, 5)
		s := NewSession()
		if err := s.RunPartial(mk(Config{Mode: ModeAutoE2E}), simtime.At(4.5)); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Config{{Mode: ModeEUCON}, {Mode: ModeAutoE2E, OuterEvery: 5}} {
			if _, err := s.Resume(mk(bad)); err == nil || !strings.Contains(err.Error(), "Middleware") {
				t.Fatalf("Resume with Middleware %+v: err = %v, want a Middleware mismatch", bad, err)
			}
		}
		res, err := s.Resume(mk(cont))
		if err != nil {
			t.Fatalf("Resume with Middleware %+v: %v", cont, err)
		}
		if !bytes.Equal(sessionCSV(t, res), want) {
			t.Fatalf("Resume with Middleware %+v diverged from the fresh run", cont)
		}
	}
}

// TestZeroModeIsOpen pins two consequences of ModeOpen being the zero
// Mode: a zero Config runs the OPEN arm (no inner solve, rates untouched),
// and Resume reads an explicit Config{Mode: ModeOpen} as "continue", so an
// AutoE2E session keeps its controllers and stays byte-identical to a
// fresh AutoE2E run.
func TestZeroModeIsOpen(t *testing.T) {
	if got := (Config{}).withDefaults().Mode; got != ModeOpen {
		t.Fatalf("zero Config normalizes to Mode %v, want OPEN", got)
	}
	sys := testSystem(t)
	res, err := Run(RunConfig{System: sys, Exec: exectime.Nominal{}, Duration: 12 * simtime.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Solves != 0 {
		t.Errorf("zero Config ran %d inner solves, want none (OPEN)", res.Solver.Solves)
	}
	for i := range sys.Tasks {
		if got, want := res.State.Rate(taskmodel.TaskID(i)), taskmodel.NewState(sys).Rate(taskmodel.TaskID(i)); got != want {
			t.Errorf("task %d rate %v after an OPEN run, want untouched %v", i, got, want)
		}
	}

	var exec exectime.Model
	mk := func(mw Config) RunConfig {
		return RunConfig{System: sys, Exec: exec, Middleware: mw, Duration: 12 * simtime.Second}
	}
	exec = exectime.NewNoise(exectime.Nominal{}, 0.3, 5)
	fresh, err := Run(mk(Config{Mode: ModeAutoE2E}))
	if err != nil {
		t.Fatal(err)
	}
	exec = exectime.NewNoise(exectime.Nominal{}, 0.3, 5)
	s := NewSession()
	if err := s.RunPartial(mk(Config{Mode: ModeAutoE2E}), simtime.At(4.5)); err != nil {
		t.Fatal(err)
	}
	cont, err := s.Resume(mk(Config{Mode: ModeOpen}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sessionCSV(t, cont), sessionCSV(t, fresh)) {
		t.Fatal("Resume with Config{Mode: ModeOpen} did not continue the AutoE2E controllers")
	}
	if cont.Solver != fresh.Solver || fresh.Solver.Solves == 0 {
		t.Fatalf("continued solver totals %+v, fresh run %+v", cont.Solver, fresh.Solver)
	}
}

// TestSessionWarmRunSolverTotals: the inner solver totals are per run. A
// warm rerun on one session (same System, so the controllers are reset in
// place, not rebuilt) reports exactly a fresh run's totals.
func TestSessionWarmRunSolverTotals(t *testing.T) {
	cfg := RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeAutoE2E},
		Duration:   12 * simtime.Second,
	}
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Solver.Solves != 12 || fresh.Solver.Factorizations < fresh.Solver.Solves {
		t.Fatalf("fresh run solver totals %+v, want 12 solves of at least one factorization", fresh.Solver)
	}
	s := NewSession()
	for run := 0; run < 3; run++ {
		res, err := s.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solver != fresh.Solver {
			t.Fatalf("session run %d solver totals %+v, fresh run %+v", run, res.Solver, fresh.Solver)
		}
	}
}

// TestRunStreamMatchesRun pins the streaming batch runner to the fresh
// runner: same results in input order for every worker count, with the
// callback observing indices strictly in order.
func TestRunStreamMatchesRun(t *testing.T) {
	mkCfgs := func() []RunConfig {
		var cfgs []RunConfig
		for _, mode := range []Mode{ModeOpen, ModeEUCON, ModeAutoE2E, ModeAutoE2E, ModeEUCON} {
			cfgs = append(cfgs, RunConfig{
				System:     testSystem(t),
				Exec:       exectime.Nominal{},
				Middleware: Config{Mode: mode, InnerPeriod: simtime.Second},
				Duration:   10 * simtime.Second,
			})
		}
		return cfgs
	}
	serial := mkCfgs()
	want := make([][]byte, len(serial))
	for i := range serial {
		res, err := Run(serial[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sessionCSV(t, res)
	}

	for _, workers := range []int{1, 2, 4} {
		cfgs := mkCfgs()
		i := 0
		next := func() (RunConfig, bool) {
			if i >= len(cfgs) {
				return RunConfig{}, false
			}
			c := cfgs[i]
			i++
			return c, true
		}
		seen := 0
		RunStream(next, workers, func(j int, r *RunResult, err error) {
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, j, err)
			}
			if j != seen {
				t.Fatalf("workers=%d: result %d delivered out of order (want %d)", workers, j, seen)
			}
			seen++
			if !bytes.Equal(want[j], sessionCSV(t, r)) {
				t.Fatalf("workers=%d run %d: streamed result diverged from fresh Run", workers, j)
			}
		})
		if seen != len(cfgs) {
			t.Fatalf("workers=%d: %d results delivered, want %d", workers, seen, len(cfgs))
		}
	}
}

// TestRunAllJoinsAllErrors: every failing run is reported, joined in input
// order, not just the first.
func TestRunAllJoinsAllErrors(t *testing.T) {
	good := RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   2 * simtime.Second,
	}
	bad := good
	bad.Exec = nil
	worse := good
	worse.Duration = 0
	results, err := RunAll([]RunConfig{good, bad, good, worse}, 2)
	if err == nil {
		t.Fatal("want joined error from failing runs")
	}
	msg := err.Error()
	if !strings.Contains(msg, "run 1:") || !strings.Contains(msg, "run 3:") {
		t.Errorf("joined error %q does not name both failing runs", msg)
	}
	if i := strings.Index(msg, "run 1:"); i < 0 || strings.Index(msg, "run 3:") < i {
		t.Errorf("joined error %q not ordered by index", msg)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful runs lost their results")
	}
	if results[1] != nil || results[3] != nil {
		t.Error("failed runs kept non-nil results")
	}
}

// TestSessionDecentralizedReuseGolden pins the decentralized inner loop's
// no-op Reset: eucon.Decentralized carries no warm state across periods
// (every buffer is per-Step scratch), so a session reused after a run that
// drove the system to a different operating point must reproduce the fresh
// runner byte-for-byte. If any scratch ever becomes load-bearing across
// runs, this test catches it before the golden sweeps do.
func TestSessionDecentralizedReuseGolden(t *testing.T) {
	sys := testSystem(t)
	golden := RunConfig{
		System: sys,
		Exec:   exectime.Nominal{},
		Middleware: Config{
			Mode:               ModeAutoE2E,
			InnerPeriod:        simtime.Second,
			DecentralizedInner: true,
		},
		Duration: 12 * simtime.Second,
	}
	fresh, err := Run(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := sessionCSV(t, fresh)
	wantCounters := fresh.Counters

	// Dirty the warm plumbing: same shape (warm-path reuse), different
	// per-run knobs, scripted rate kicks pushing every controller off the
	// golden trajectory.
	dirty := golden
	dirty.Duration = 7 * simtime.Second
	dirty.Events = []Event{
		{At: simtime.At(1), Do: func(st *taskmodel.State) {
			st.SetRate(0, 40)
			st.SetRate(1, 5)
		}},
	}
	s := NewSession()
	if _, err := s.Run(dirty); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sessionCSV(t, got), wantCSV) {
		t.Error("reused decentralized session diverged from fresh Run (trace mismatch)")
	}
	if len(got.Counters) != len(wantCounters) {
		t.Fatalf("counters length %d != %d", len(got.Counters), len(wantCounters))
	}
	for i := range wantCounters {
		if got.Counters[i] != wantCounters[i] {
			t.Errorf("task %d counters = %+v, want %+v", i, got.Counters[i], wantCounters[i])
		}
	}
}

// TestRunStreamRetainWithoutClone demonstrates end-to-end the aliasing bug
// the ownedbuf analyzer exists to catch: a RunStream callback that retains
// the *RunResult pointer observes it silently overwritten by the worker's
// next run, while a Clone taken inside the callback keeps the first run's
// data. (Test files are exempt from the analyzer, which is what lets this
// file retain without Clone on purpose.)
func TestRunStreamRetainWithoutClone(t *testing.T) {
	sys := testSystem(t)
	mk := func(d simtime.Duration) RunConfig {
		return RunConfig{
			System:     sys,
			Exec:       exectime.Nominal{},
			Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second},
			Duration:   d,
		}
	}
	cfgs := []RunConfig{mk(4 * simtime.Second), mk(9 * simtime.Second)}

	i := 0
	next := func() (RunConfig, bool) {
		if i >= len(cfgs) {
			return RunConfig{}, false
		}
		cfg := cfgs[i]
		i++
		return cfg, true
	}
	var retained, cloned *RunResult
	RunStream(next, 1, func(idx int, r *RunResult, err error) {
		if err != nil {
			t.Errorf("run %d: %v", idx, err)
			return
		}
		if idx == 0 {
			retained = r
			cloned = r.Clone()
		}
	})

	want0, err := Run(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	want1, err := Run(cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	// The clone is the first run, byte for byte.
	if !bytes.Equal(sessionCSV(t, cloned), sessionCSV(t, want0)) {
		t.Error("in-callback Clone does not match the first run")
	}
	// The retained pointer is not: the single worker's session overwrote
	// it with the second run's data — the corruption this test pins.
	if bytes.Equal(sessionCSV(t, retained), sessionCSV(t, want0)) {
		t.Error("retained result still matches run 0; expected it to be overwritten (did Session stop reusing buffers?)")
	}
	if !bytes.Equal(sessionCSV(t, retained), sessionCSV(t, want1)) {
		t.Error("retained result matches neither run; expected exactly the second run's data")
	}
}

// TestSnapshotRefusesAttachEvents pins the checkpoint contract's refusal
// path: an engine ticker installed through Attach cannot be rebound, so
// Snapshot fails with sched.ErrUnknownEventArg, RunTree (which does not
// support Attach) fails at its prefix, and the refused session's next plain
// Run is byte-identical to a fresh Run.
func TestSnapshotRefusesAttachEvents(t *testing.T) {
	plain := RunConfig{
		System:     testSystem(t),
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeEUCON, InnerPeriod: simtime.Second},
		Duration:   10 * simtime.Second,
	}
	attached := plain
	attached.Attach = func(eng *simtime.Engine, _ *taskmodel.State) {
		eng.Every(250*simtime.Millisecond, func(simtime.Time) {})
	}
	forkAt := simtime.At(4)

	s := NewSession()
	if err := s.RunPartial(attached, forkAt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, sched.ErrUnknownEventArg) {
		t.Fatalf("Snapshot with an Attach ticker pending: err = %v, want %v", err, sched.ErrUnknownEventArg)
	}

	_, err := RunTree(TreeConfig{
		Base:   func() RunConfig { return attached },
		ForkAt: forkAt,
		Forks:  []Fork{{}},
	})
	if !errors.Is(err, sched.ErrUnknownEventArg) || !strings.HasPrefix(err.Error(), "core: prefix: ") {
		t.Fatalf("RunTree with Attach: err = %v, want a prefix error wrapping %v", err, sched.ErrUnknownEventArg)
	}

	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(plain)
	if err != nil {
		t.Fatalf("plain Run after the refused Snapshot: %v", err)
	}
	if !bytes.Equal(sessionCSV(t, want), sessionCSV(t, got)) {
		t.Fatal("plain Run after the refused Snapshot diverged from a fresh Run (CSV bytes differ)")
	}
	for i := range want.Counters {
		if want.Counters[i] != got.Counters[i] {
			t.Fatalf("task %d counters diverged: %+v != %+v", i, got.Counters[i], want.Counters[i])
		}
	}
	if want.Solver != got.Solver {
		t.Fatalf("solver totals diverged: %+v != %+v", got.Solver, want.Solver)
	}
}
