package core

import (
	"bytes"
	"testing"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/simtime"
)

// runCSV renders a result's trace for byte comparison.
func runCSV(t *testing.T, r *RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCloneIntoMatchesClone pins the recycled deep copy to the fresh one:
// identical observable content, destination pointer reused, and full
// independence from the owning session's next run.
func TestCloneIntoMatchesClone(t *testing.T) {
	sys := testSystem(t)
	cfg := RunConfig{
		System:     sys,
		Exec:       exectime.NewNoise(exectime.Nominal{}, 0.2, 3),
		Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second},
		Duration:   8 * simtime.Second,
	}
	s := NewSession()
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := res.Clone()
	recycled := res.CloneInto(&RunResult{})

	requireResultsEqual(t, "CloneInto vs Clone", fresh, recycled)

	// Recycling: cloning a later run into the same slot returns the same
	// pointer and the new content.
	cfg2 := cfg
	cfg2.Exec = exectime.NewNoise(exectime.Nominal{}, 0.2, 9)
	res2, err := s.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Independence: the session's next run must not reach either clone.
	requireResultsEqual(t, "clones after session reuse", fresh, recycled)

	fresh2 := res2.Clone()
	if bytes.Equal(runCSV(t, fresh), runCSV(t, fresh2)) {
		t.Fatal("test is vacuous: the two runs produced identical traces")
	}
	if got := res2.CloneInto(recycled); got != recycled {
		t.Fatal("CloneInto did not return its destination slot")
	}
	requireResultsEqual(t, "recycled slot after second run", fresh2, recycled)
}

func requireResultsEqual(t *testing.T, label string, want, got *RunResult) {
	t.Helper()
	if !bytes.Equal(runCSV(t, want), runCSV(t, got)) {
		t.Fatalf("%s: trace CSV bytes diverged", label)
	}
	if len(want.Counters) != len(got.Counters) {
		t.Fatalf("%s: counter lengths diverged: %d vs %d", label, len(want.Counters), len(got.Counters))
	}
	for i := range want.Counters {
		if want.Counters[i] != got.Counters[i] {
			t.Fatalf("%s: task %d counters diverged: %+v vs %+v", label, i, want.Counters[i], got.Counters[i])
		}
	}
	for i, r := range want.State.Rates() {
		if got.State.Rates()[i] != r {
			t.Fatalf("%s: rate %d diverged", label, i)
		}
	}
}

// TestCloneIntoSteadyStateZeroAlloc: once a retained slot has seen the
// campaign's series names and sample counts, further CloneInto calls
// allocate nothing.
func TestCloneIntoSteadyStateZeroAlloc(t *testing.T) {
	sys := testSystem(t)
	cfg := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second},
		Duration:   10 * simtime.Second,
	}
	s := NewSession()
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := res.CloneInto(nil)
	allocs := testing.AllocsPerRun(10, func() {
		res.CloneInto(dst)
	})
	if allocs != 0 {
		t.Errorf("warm RunResult.CloneInto allocates %v allocs/op, want 0", allocs)
	}
}

// TestStreamSteadyStateAllocs is the de-allocated stream path's gate: with
// warm pooled sessions, a whole serial RunStream batch costs a handful of
// per-call allocations (the session slice and the closures) and nothing
// per run.
func TestStreamSteadyStateAllocs(t *testing.T) {
	sys := testSystem(t)
	cfg := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeAutoE2E, InnerPeriod: simtime.Second},
		Duration:   5 * simtime.Second,
	}
	const runs = 8
	runBatch := func() {
		i := 0
		next := func() (RunConfig, bool) {
			if i >= runs {
				return RunConfig{}, false
			}
			i++
			return cfg, true
		}
		RunStream(next, 1, func(_ int, _ *RunResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	runBatch() // build the pooled session
	runBatch() // warm it
	allocs := testing.AllocsPerRun(10, runBatch)
	if allocs > 6 {
		t.Errorf("warm RunStream batch of %d runs allocates %v objects, want the per-call fixed cost (<= 6)", runs, allocs)
	}
}

// TestSessionPoolRecyclesAcrossCalls: the second RunStream call must get
// the first call's warm session back instead of building a new one.
func TestSessionPoolRecyclesAcrossCalls(t *testing.T) {
	sys := testSystem(t)
	cfg := RunConfig{
		System:     sys,
		Exec:       exectime.Nominal{},
		Middleware: Config{Mode: ModeOpen, InnerPeriod: simtime.Second},
		Duration:   2 * simtime.Second,
	}
	one := func() {
		done := false
		next := func() (RunConfig, bool) {
			if done {
				return RunConfig{}, false
			}
			done = true
			return cfg, true
		}
		RunStream(next, 1, func(_ int, _ *RunResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	one()
	sessionPool.mu.Lock()
	var warm *Session
	for _, s := range sessionPool.free {
		if s.built && s.sys == sys {
			warm = s
		}
	}
	sessionPool.mu.Unlock()
	if warm == nil {
		t.Fatal("no warm session returned to the pool after RunStream")
	}
	one()
	sessionPool.mu.Lock()
	seen := false
	for _, s := range sessionPool.free {
		if s == warm {
			seen = true
		}
	}
	sessionPool.mu.Unlock()
	if !seen {
		t.Fatal("second RunStream did not recycle the pooled warm session")
	}
}
