package simtime

import "testing"

// drawMixed consumes r through every distribution the simulation uses —
// uniform floats, Gaussians, bounded ints, scaled uniforms — mimicking how
// execution-time noise, CAN jitter, and scenario fuzzers interleave draws,
// and returns the sample sequence for bitwise comparison.
func drawMixed(r *Rand, n int) []float64 {
	out := make([]float64, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out, r.Float64())
		out = append(out, r.NormFloat64())
		out = append(out, float64(r.Intn(1000)))
		out = append(out, r.Uniform(0.5, 1.5))
	}
	return out
}

func requireSameSamples(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: sample counts diverged: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: sample %d diverged: %v vs %v", label, i, want[i], got[i])
		}
	}
}

// TestRandStateRoundTrip pins the save/restore contract of the snapshot
// layer: capturing State mid-stream and rewinding with SetState reproduces
// the exact continuation, through every distribution method.
func TestRandStateRoundTrip(t *testing.T) {
	r := NewRand(42)
	drawMixed(r, 100) // advance to an arbitrary mid-stream point
	st := r.State()
	want := drawMixed(r, 200)

	r.SetState(st)
	requireSameSamples(t, "rewind same instance", want, drawMixed(r, 200))

	// Restoring into a freshly-built stream (any seed) must work too —
	// that is what Session.Resume does with per-fork model stacks.
	fresh := NewRand(7)
	fresh.SetState(st)
	requireSameSamples(t, "restore into fresh instance", want, drawMixed(fresh, 200))
}

// TestRandStateInterleavedConsumers models a fork with several registered
// streams (execution-time noise, CAN jitter): each stream's state is
// captured mid-run, and fresh instances rewound to those states must
// reproduce the exact interleaved continuation — independent of how the
// original draws interleaved before the capture.
func TestRandStateInterleavedConsumers(t *testing.T) {
	noise, jitter := NewRand(1), NewRand(2)
	// Interleave draws unevenly, as task releases and bus messages do.
	mix := NewRand(3)
	for i := 0; i < 500; i++ {
		if mix.Intn(3) == 0 {
			jitter.Float64()
		} else {
			noise.Uniform(0.9, 1.1)
		}
	}
	noiseSt, jitterSt := noise.State(), jitter.State()

	// The continuation the live streams would produce.
	var wantNoise, wantJitter []float64
	for i := 0; i < 300; i++ {
		wantNoise = append(wantNoise, noise.Uniform(0.9, 1.1))
		wantJitter = append(wantJitter, jitter.Float64())
	}

	// Fresh instances (different seeds — the states must fully determine
	// the continuation), rewound as Resume does.
	noise2, jitter2 := NewRand(11), NewRand(12)
	noise2.SetState(noiseSt)
	jitter2.SetState(jitterSt)
	var gotNoise, gotJitter []float64
	for i := 0; i < 300; i++ {
		gotNoise = append(gotNoise, noise2.Uniform(0.9, 1.1))
		gotJitter = append(gotJitter, jitter2.Float64())
	}
	requireSameSamples(t, "noise stream", wantNoise, gotNoise)
	requireSameSamples(t, "jitter stream", wantJitter, gotJitter)
}

// TestRandStateIsValueCopy pins that State is a value snapshot, not an
// alias: advancing the source after capture must not disturb the copy.
func TestRandStateIsValueCopy(t *testing.T) {
	r := NewRand(5)
	st := r.State()
	before := st
	drawMixed(r, 50)
	if st != before {
		t.Fatal("RandState mutated by drawing from the captured stream")
	}
	r2 := NewRand(9)
	r2.SetState(st)
	r3 := NewRand(5)
	requireSameSamples(t, "state captured at seed point", drawMixed(r3, 50), drawMixed(r2, 50))
}
