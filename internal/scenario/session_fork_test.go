package scenario

import (
	"testing"

	"github.com/autoe2e/autoe2e/internal/bus"
	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// The fork golden tests pin the snapshot/fork contract: a run forked at
// time t — prefix once, Snapshot, Restore, Resume with a mutation — must be
// byte-identical (CSV trace bytes, chain-event log, counters, final state)
// to a fresh full run whose config appends the same mutation as a scenario
// event at t. Every continuation path is exercised: resuming the live
// session in place, restoring into the capturing session, into a fresh
// session, and into a session previously warmed on a different shape.

// forkCase is one scenario family with a fork instant and a divergence.
type forkCase struct {
	name   string
	mk     func() core.RunConfig
	forkAt simtime.Time
	mutate func(st *taskmodel.State)
}

func forkCases() []forkCase {
	return []forkCase{
		{
			// Open-loop: no middleware adaptation, so the mutation must
			// reach the trace purely through the substrate.
			name:   "Motivation",
			mk:     func() core.RunConfig { return Motivation(1.94, 3) },
			forkAt: simtime.At(11).Add(250 * simtime.Millisecond),
			mutate: func(st *taskmodel.State) {
				st.SetRate(workload.SimPathTracking, 40)
				st.SetRate(workload.SimStability, 30)
			},
		},
		{
			name:   "SaturationSweep",
			mk:     func() core.RunConfig { return SaturationSweep(24, 5) },
			forkAt: simtime.At(13),
			mutate: func(st *taskmodel.State) {
				st.SetRateFloor(workload.SimPathTracking, units.PerPeriod(simtime.FromMillis(21)))
			},
		},
		{
			// Mid-restoration fork: at 30 s the Figure 9 restorer is
			// active, so the outer controller's phase machine is live state.
			name:   "TestbedRestore",
			mk:     func() core.RunConfig { return TestbedRestore(7) },
			forkAt: simtime.At(30).Add(500 * simtime.Millisecond),
			mutate: func(st *taskmodel.State) {
				st.SetRateFloor(workload.TestbedSteerByWire, 80)
				st.SetRateFloor(workload.TestbedDriveByWire, 80)
			},
		},
		{
			name:   "SimAccelerationAutoE2E",
			mk:     func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, 2) },
			forkAt: simtime.At(30),
			mutate: func(st *taskmodel.State) {
				st.SetRateFloor(workload.SimACC, 30)
				st.SetRateFloor(workload.SimABS, 110)
			},
		},
	}
}

// freshWithFork runs the whole scenario fresh with the fork's mutation
// appended as a config-time scenario event — the golden the forked paths
// must reproduce byte for byte.
func freshWithFork(t *testing.T, fc forkCase) observedRun {
	t.Helper()
	cfg := fc.mk()
	cfg.Events = append(cfg.Events, core.Event{At: fc.forkAt, Do: fc.mutate})
	return runFresh(t, cfg)
}

// prefixAndSnapshot runs the scenario's shared prefix on s up to the fork
// instant and captures it, returning the checkpoint and the prefix's chain
// log (which every continuation extends).
func prefixAndSnapshot(t *testing.T, s *core.Session, fc forkCase) (*core.Checkpoint, *[]sched.ChainEvent) {
	t.Helper()
	chains := &[]sched.ChainEvent{}
	cfg := fc.mk()
	cfg.OnChain = func(ev sched.ChainEvent) { *chains = append(*chains, ev) }
	if err := s.RunPartial(cfg, fc.forkAt); err != nil {
		t.Fatalf("RunPartial: %v", err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return cp, chains
}

// resumeObserved restores cp into s (unless inPlace) and resumes with the
// fork mutation, returning the full observable output (prefix chains plus
// continuation chains).
func resumeObserved(t *testing.T, s *core.Session, cp *core.Checkpoint, fc forkCase, chains *[]sched.ChainEvent) observedRun {
	t.Helper()
	if err := s.Restore(cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	cfg := fc.mk()
	cfg.System = nil // the restored session owns the system
	cfg.OnChain = func(ev sched.ChainEvent) { *chains = append(*chains, ev) }
	cfg.Events = []core.Event{{At: fc.forkAt, Do: fc.mutate}}
	res, err := s.Resume(cfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	return observe(t, res, *chains)
}

// TestForkGoldenClosedLoops is the core byte-identity gate, fork-restored
// into the capturing session itself and into a brand-new one.
func TestForkGoldenClosedLoops(t *testing.T) {
	for _, fc := range forkCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			fresh := freshWithFork(t, fc)

			// Restore into the session that took the snapshot.
			s := core.NewSession()
			cp, chains := prefixAndSnapshot(t, s, fc)
			prefixLen := len(*chains)
			same := resumeObserved(t, s, cp, fc, chains)
			requireRunsIdentical(t, "fork into capturing session", fresh, same)

			// Restore the same checkpoint into a fresh session; the prefix
			// chain log is shared, so rewind it to the snapshot point.
			rewound := append([]sched.ChainEvent(nil), (*chains)[:prefixLen]...)
			other := resumeObserved(t, core.NewSession(), cp, fc, &rewound)
			requireRunsIdentical(t, "fork into fresh session", fresh, other)
		})
	}
}

// TestForkResumeInPlace pins the snapshot-free continuation: RunPartial
// then Resume on the same live session with the same config (same model
// instances, no restore, no stream rewind) plus the mutation injected at
// the fork instant.
func TestForkResumeInPlace(t *testing.T) {
	for _, fc := range forkCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			fresh := freshWithFork(t, fc)

			var chains []sched.ChainEvent
			cfg := fc.mk()
			cfg.OnChain = func(ev sched.ChainEvent) { chains = append(chains, ev) }
			s := core.NewSession()
			if err := s.RunPartial(cfg, fc.forkAt); err != nil {
				t.Fatalf("RunPartial: %v", err)
			}
			cont := cfg // same models continue; only the events differ
			cont.Events = []core.Event{{At: fc.forkAt, Do: fc.mutate}}
			res, err := s.Resume(cont)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			got := observe(t, res, chains)
			requireRunsIdentical(t, "resume in place", fresh, got)
		})
	}
}

// TestForkAcrossShapes restores a checkpoint into a session warmed on a
// different task system and middleware configuration — the rebuild path —
// and still requires byte identity.
func TestForkAcrossShapes(t *testing.T) {
	fc := forkCases()[2] // TestbedRestore
	fresh := freshWithFork(t, fc)

	// Warm the destination session on an entirely different shape first.
	warmed := core.NewSession()
	if _, err := warmed.Run(SimAcceleration(core.ModeEUCON, 1)); err != nil {
		t.Fatalf("warming run: %v", err)
	}

	cp, chains := prefixAndSnapshot(t, core.NewSession(), fc)
	got := resumeObserved(t, warmed, cp, fc, chains)
	requireRunsIdentical(t, "fork across shapes", fresh, got)
}

// TestForkCANBusJitter forks a run whose communication fabric draws
// per-message jitter from a registered random stream: the continuation
// constructs a fresh bus, and the rewind must make it reproduce the exact
// jitter sequence the replayed run would draw. This is the stream-fidelity
// gate for RunConfig.Rands.
func TestForkCANBusJitter(t *testing.T) {
	mkBus := func() core.RunConfig {
		cfg := SimAcceleration(core.ModeAutoE2E, 4)
		b := bus.NewCANBus(200*simtime.Microsecond, 150*simtime.Microsecond, 11)
		cfg.LinkDelay = b.Delay
		cfg.Rands = []*simtime.Rand{b.Rand()}
		return cfg
	}
	fc := forkCase{
		name:   "CANBus",
		mk:     mkBus,
		forkAt: simtime.At(23).Add(500 * simtime.Millisecond),
		mutate: func(st *taskmodel.State) {
			st.SetRateFloor(workload.SimStability, 30)
		},
	}
	fresh := freshWithFork(t, fc)
	cp, chains := prefixAndSnapshot(t, core.NewSession(), fc)
	got := resumeObserved(t, core.NewSession(), cp, fc, chains)
	requireRunsIdentical(t, "fork with CAN jitter", fresh, got)
}

// fuzzForkCase maps a fuzz input to a fork case: scenario picks the
// family (taken modulo the family count), seed its noise stream, and
// offsetUs the fork instant, folded into the family's fork window so
// every input forks strictly inside the run. Fork instants are
// deliberately not aligned to control periods.
func fuzzForkCase(scenario uint8, seed, offsetUs int64) forkCase {
	families := []struct {
		mk     func() core.RunConfig
		lo, hi float64 // fork window, s
		mutate func(st *taskmodel.State)
	}{
		{
			mk:     func() core.RunConfig { return Motivation(1+float64(uint64(seed)%1000)/1000, seed) },
			lo:     2,
			hi:     28,
			mutate: func(st *taskmodel.State) { st.SetRate(workload.SimPathTracking, 38) },
		},
		{
			mk:     func() core.RunConfig { return TestbedRestore(seed) },
			lo:     5,
			hi:     115,
			mutate: func(st *taskmodel.State) { st.SetRateFloor(workload.TestbedSteerCtrl, 17) },
		},
		{
			mk:     func() core.RunConfig { return SimAcceleration(core.ModeEUCON, seed) },
			lo:     3,
			hi:     57,
			mutate: func(st *taskmodel.State) { st.SetRateFloor(workload.SimACC, 32) },
		},
		{
			mk:     func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, seed) },
			lo:     3,
			hi:     57,
			mutate: func(st *taskmodel.State) { st.SetRateFloor(workload.SimACC, 32) },
		},
		{
			// Open loop on one overloaded ECU: every fast release preempts
			// the slow task or the chain's second stage.
			mk: func() core.RunConfig {
				cfg := singleStageOverload()
				cfg.Exec = exectime.NewNoise(exectime.Nominal{}, ExecNoise, seed)
				return cfg
			},
			lo:     1,
			hi:     19,
			mutate: func(st *taskmodel.State) { st.SetRate(1, 30) },
		},
		{
			// The same workload at nominal demand, so completions land on
			// release instants: the schedule repeats every 100 ms.
			mk: func() core.RunConfig {
				cfg := singleStageOverload()
				cfg.Exec = exectime.Nominal{}
				return cfg
			},
			lo:     1,
			hi:     19,
			mutate: func(st *taskmodel.State) { st.SetRate(1, 30) },
		},
	}
	f := families[int(scenario)%len(families)]
	span := int64(simtime.FromSeconds(f.hi - f.lo))
	off := offsetUs % span
	if off < 0 {
		off += span
	}
	return forkCase{
		mk:     f.mk,
		forkAt: simtime.At(f.lo).Add(simtime.Duration(off)),
		mutate: f.mutate,
	}
}

// FuzzForkMatchesReplay forks scenario/seed/instant triples through both
// copy paths — a Checkpoint restored into a fresh session, and RunTree's
// forks copied straight from the live prefix session — and requires each
// to match the fresh replay byte for byte. Any state a copy misses, any
// stream not rewound, any event mis-ordered shows up as a diff.
//
// The seed corpus holds the eight draws of the earlier randomized sweep,
// a fork at a preemption instant (10.02 s in the overloaded workload: a
// fast release preempting the running slow job) and one at an instant
// where a completion and releases coincide (10.02 s at nominal demand:
// the chain's first stage completes as the fast task and the chain's
// second stage release).
func FuzzForkMatchesReplay(f *testing.F) {
	for _, in := range []struct {
		scenario       uint8
		seed, offsetUs int64
	}{
		{2, 380, 10_117_863},
		{3, 527, 9_280_842},
		{1, 379, 54_369_200},
		{2, 672, 15_565_252},
		{2, 188, 34_775_729},
		{1, 968, 71_494_060},
		{1, 716, 44_700_956},
		{3, 120, 41_505_385},
		{4, 3, 9_020_000},
		{5, 0, 9_020_000},
	} {
		f.Add(in.scenario, in.seed, in.offsetUs)
	}
	f.Fuzz(func(t *testing.T, scenario uint8, seed, offsetUs int64) {
		if testing.Short() {
			t.Skip("fork fuzz is slow")
		}
		fc := fuzzForkCase(scenario, seed, offsetUs)
		fresh := freshWithFork(t, fc)

		cp, chains := prefixAndSnapshot(t, core.NewSession(), fc)
		requireRunsIdentical(t, "fork restored from a checkpoint", fresh, resumeObserved(t, core.NewSession(), cp, fc, chains))

		tree, err := core.RunTree(core.TreeConfig{
			Base:    fc.mk,
			ForkAt:  fc.forkAt,
			Forks:   []core.Fork{{Mutate: fc.mutate}},
			Workers: 1,
		})
		if err != nil {
			t.Fatalf("RunTree: %v", err)
		}
		fresh.chains = nil // RunTree results carry no chain log
		requireRunsIdentical(t, "fork copied from the prefix session", fresh, observe(t, tree[0], nil))
	})
}

// TestRunTreeGolden drives the whole-campaign API: every fork's result must
// match its fresh full run, and the results must be invariant to the worker
// count. (Chain logs are pinned by the direct fork tests; RunTree results
// carry traces, counters and final state.)
func TestRunTreeGolden(t *testing.T) {
	mk := func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, 6) }
	forkAt := simtime.At(30)
	forks := []core.Fork{
		{Mutate: func(st *taskmodel.State) { st.SetRateFloor(workload.SimACC, 30) }},
		{Mutate: func(st *taskmodel.State) { st.SetRateFloor(workload.SimABS, 110) }},
		{}, // no divergence: must still equal the un-mutated full run
		{
			Mutate: func(st *taskmodel.State) { st.SetRateFloor(workload.SimStability, 28) },
			Events: []core.Event{{At: simtime.At(45), Do: func(st *taskmodel.State) {
				st.SetRateFloor(workload.SimStability, 22)
			}}},
		},
	}

	runCampaign := func(workers int) []*core.RunResult {
		results, err := core.RunTree(core.TreeConfig{
			Base:    mk,
			ForkAt:  forkAt,
			Forks:   forks,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("RunTree(workers=%d): %v", workers, err)
		}
		return results
	}
	serial := runCampaign(1)
	parallelRes := runCampaign(4)

	for fi, fork := range forks {
		cfg := mk()
		if fork.Mutate != nil {
			cfg.Events = append(cfg.Events, core.Event{At: forkAt, Do: fork.Mutate})
		}
		cfg.Events = append(cfg.Events, fork.Events...)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("fresh run for fork %d: %v", fi, err)
		}
		fresh := observe(t, res, nil)
		requireRunsIdentical(t, "fork (serial campaign)", fresh, observe(t, serial[fi], nil))
		requireRunsIdentical(t, "fork (parallel campaign)", fresh, observe(t, parallelRes[fi], nil))
	}
}

// singleStageOverload is an open-loop workload of fixed-rate tasks on one
// shared ECU: "fast" (50 Hz) preempts "slow" (40 Hz), whose demand never
// fits the time left, so every slow instance is still live at its
// deadline — the instant of slow's next release, which resolves it. A
// two-stage chain keeps a deadline event of its own alongside.
func singleStageOverload() core.RunConfig {
	sys := &taskmodel.System{
		NumECUs: 2,
		Tasks: []*taskmodel.Task{
			{
				Name:     "fast",
				Subtasks: []taskmodel.Subtask{{Name: "f", ECU: 0, NominalExec: simtime.FromMillis(12), MinRatio: 1, Weight: 1}},
				RateMin:  50, RateMax: 50,
			},
			{
				Name:     "slow",
				Subtasks: []taskmodel.Subtask{{Name: "s", ECU: 0, NominalExec: simtime.FromMillis(15), MinRatio: 1, Weight: 1}},
				RateMin:  20, RateMax: 60, InitRate: 40,
			},
			{
				Name: "chain",
				Subtasks: []taskmodel.Subtask{
					{Name: "a", ECU: 1, NominalExec: simtime.FromMillis(20), MinRatio: 1, Weight: 1},
					{Name: "b", ECU: 0, NominalExec: simtime.FromMillis(2), MinRatio: 1, Weight: 1},
				},
				RateMin: 10, RateMax: 10,
			},
		},
	}
	if err := sys.Validate(); err != nil {
		panic(err) // the literal above is a fixed, valid system
	}
	return core.RunConfig{
		System:     sys,
		Exec:       exectime.NewNoise(exectime.Nominal{}, ExecNoise, 3),
		Middleware: core.Config{Mode: core.ModeOpen, InnerPeriod: simtime.Second},
		Duration:   20 * simtime.Second,
	}
}

// TestForkAtSingleStageRelease forks exactly at a release instant of two
// single-stage tasks whose previous instances are due there, one of them
// still unfinished: the snapshot holds the due chain and its pending
// release, and the continuation must abort it before the new instance
// starts, as the fresh run does. The fork must match the fresh replay byte
// for byte, restored into the capturing session and onto a session warmed
// on a different shape.
func TestForkAtSingleStageRelease(t *testing.T) {
	const slow = 1
	fc := forkCase{
		name:   "SingleStageRelease",
		mk:     singleStageOverload,
		forkAt: simtime.At(10.5), // 525 fast and 420 slow periods
		mutate: func(st *taskmodel.State) { st.SetRate(slow, 30) },
	}
	fresh := freshWithFork(t, fc)
	resolved := false
	for _, ev := range fresh.chains {
		if ev.Task == slow && ev.Missed && ev.Deadline == fc.forkAt {
			resolved = true
		}
	}
	if !resolved {
		t.Fatalf("no slow instance was aborted at the fork instant %v: the fork does not cut through a due chain", fc.forkAt)
	}

	s := core.NewSession()
	cp, chains := prefixAndSnapshot(t, s, fc)
	prefixLen := len(*chains)
	requireRunsIdentical(t, "fork into capturing session", fresh, resumeObserved(t, s, cp, fc, chains))

	warmed := core.NewSession()
	if _, err := warmed.Run(SimAcceleration(core.ModeEUCON, 1)); err != nil {
		t.Fatalf("warming run: %v", err)
	}
	rewound := append([]sched.ChainEvent(nil), (*chains)[:prefixLen]...)
	requireRunsIdentical(t, "fork onto a different session", fresh, resumeObserved(t, warmed, cp, fc, &rewound))
}
