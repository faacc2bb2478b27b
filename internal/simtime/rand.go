package simtime

import "math/rand"

// RandState is the complete serialized state of a Rand: the four 64-bit
// words of its xoshiro256** generator. Capturing it with State and feeding
// it back through SetState replays the exact sample sequence, which is what
// lets a forked session reproduce the CAN-bus jitter and execution-time
// noise of the run it branched from.
type RandState [4]uint64

// xoshiro256** (Blackman & Vigna). Chosen over math/rand's additive
// lagged-Fibonacci source because its state is four words that can be
// copied in and out — the stock source keeps 607 words behind an
// unexported type and cannot be checkpointed.
type xoshiro struct {
	s RandState
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

func (x *xoshiro) seed(seed int64) {
	// splitmix64 expansion per the reference implementation; guarantees a
	// non-zero state for every seed, including 0.
	sm := uint64(seed)
	x.s[0] = splitmix64(&sm)
	x.s[1] = splitmix64(&sm)
	x.s[2] = splitmix64(&sm)
	x.s[3] = splitmix64(&sm)
}

func (x *xoshiro) Uint64() uint64 {
	res := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return res
}

func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }

// Seed implements rand.Source. It is required by the interface but unused:
// Rand always seeds through NewRand or SetState.
func (x *xoshiro) Seed(seed int64) { x.seed(seed) }

// Rand is a deterministic random source shared by the simulation's noise
// models. It layers math/rand's distribution algorithms (ziggurat normals,
// unbiased bounded ints) over a checkpointable xoshiro256** core with a
// fixed seed, so that experiment runs are exactly reproducible; the paper's
// evaluation depends on comparing controllers on identical workload traces.
//
// All distribution state lives in the four-word source: math/rand.Rand
// itself is stateless between calls for every method Rand exposes, so
// State/SetState round-trips are exact.
type Rand struct {
	//lint:allow nodeterminism this wrapper is the one sanctioned math/rand use
	src *rand.Rand
	x   xoshiro
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.x.seed(seed)
	//lint:allow nodeterminism explicitly seeded; every other package must come through here
	r.src = rand.New(&r.x)
	return r
}

// Reseed rewinds the generator to the state a fresh NewRand(seed) would
// start from, without allocating. All distribution state lives in the
// four-word source (see the type comment), so the reseeded stream is
// sample-for-sample identical to a new Rand's. Long-running services use
// this to serve per-request seeds from one retained stream.
func (r *Rand) Reseed(seed int64) { r.x.seed(seed) }

// State returns the complete generator state. The returned value is a plain
// array copy owned by the caller.
func (r *Rand) State() RandState { return r.x.s }

// SetState rewinds (or fast-forwards) the generator to a previously
// captured state. The next sample drawn equals the sample that followed the
// State call that produced st.
func (r *Rand) SetState(st RandState) { r.x.s = st }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard-normal value.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Gaussian returns a normal value with the given mean and standard
// deviation.
func (r *Rand) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}
