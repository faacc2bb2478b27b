package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
)

// workers is the worker (and client connection) count of every workload:
// the benchmark targets a 2-core host.
const workers = 2

// setupTrials is how many times each workload repeats its set-up; setup_s
// is the median.
const setupTrials = 7

// bench carries one invocation: its inputs, the metrics it measured and the
// operations it counted.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	rng *rand.Rand

	e2e   map[string]float64
	layer map[string]float64

	attempted int64
	failed    int64
	failures  []string
	digest    digest

	setupTimes []float64 // seconds per set-up trial
	notes      []string  // sample counts and other context for the report

	// corrupt damages one retained result before verification. Only the
	// smoke test sets it, to prove a wrong result is caught.
	corrupt bool
}

func newBench(workload string, seed int64, seconds float64, traced bool) *bench {
	return &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		rng:      rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
}

// runSeed draws the next run (noise) seed from the workload's seeded
// stream; every library input derives from these.
func (b *bench) runSeed() int64 { return 1 + b.rng.Int64N(1<<31-1) }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// digest is the exact summary of the simulated statistics of a fixed,
// seed-determined set of runs. It does not depend on timing, so it must
// repeat exactly for a given seed; a speed-only change must leave it alone.
type digest struct {
	runs      int64
	jobs      int64
	chains    int64
	misses    int64
	precision float64 // sum of final total precision, in run order
	samples   int64
}

func (d *digest) add(o digest) {
	d.runs += o.runs
	d.jobs += o.jobs
	d.chains += o.chains
	d.misses += o.misses
	d.precision += o.precision
	d.samples += o.samples
}

func (d digest) String() string {
	return fmt.Sprintf("runs=%d jobs=%d chains=%d misses=%d precision=%.17g samples=%d",
		d.runs, d.jobs, d.chains, d.misses, d.precision, d.samples)
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianSetup runs a workload's set-up setupTrials times and returns the
// median wall time in seconds. The last trial's state is what the measured
// phase continues from.
func medianSetup(b *bench, trial func(last bool) error) (float64, error) {
	times := make([]float64, 0, setupTrials)
	for i := 0; i < setupTrials; i++ {
		t0 := time.Now()
		if err := trial(i == setupTrials-1); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.setupTimes = times
	return quantile(times, 0.5), nil
}

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLiveMiB forces a collection and returns the live heap in MiB.
func heapLiveMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// phase measures the memory end of a timed phase: allocation is sampled at
// start, the live heap after a forced collection at stop.
type phase struct {
	t0     time.Time
	alloc0 uint64
}

// startPhase collects set-up garbage first, so that the measured phase does
// not pay for it.
func startPhase() phase {
	runtime.GC()
	return phase{t0: time.Now(), alloc0: heapAllocBytes()}
}

// finish records the end-to-end throughput and memory metrics for runs
// completed in the phase.
func (p phase) finish(b *bench, runs int64) {
	wall := time.Since(p.t0).Seconds()
	allocKB := float64(heapAllocBytes()-p.alloc0) / 1024
	b.e2e["runs_per_s"] = float64(runs) / wall
	b.e2e["alloc_kb_per_run"] = allocKB / float64(max(runs, 1))
	b.e2e["heap_live_mb"] = heapLiveMiB()
}

// fingerprint renders everything a run produced — trace CSV, counters and
// final operating point — as bytes, so two results can be compared exactly.
func fingerprint(res *core.RunResult) []byte {
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		return nil
	}
	for _, c := range res.Counters {
		fmt.Fprintf(&buf, "#c %d %d %d\n", c.Released, c.Completed, c.Missed)
	}
	st := res.State
	sys := st.System()
	for i, t := range sys.Tasks {
		id := taskmodel.TaskID(i)
		fmt.Fprintf(&buf, "#s %x %x", math.Float64bits(st.Rate(id).Float()), math.Float64bits(st.RateFloor(id).Float()))
		for k := range t.Subtasks {
			fmt.Fprintf(&buf, " %x", math.Float64bits(st.Ratio(taskmodel.SubtaskRef{Task: id, Index: k}).Float()))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// hasher accumulates an FNV-1a hash of 64-bit words and names.
type hasher struct{ h hash.Hash64 }

func newHasher() hasher { return hasher{fnv.New64a()} }

func (h hasher) word(v uint64) {
	var w [8]byte
	for i := range w {
		w[i] = byte(v >> (8 * i))
	}
	h.h.Write(w[:])
}

// summaryHash hashes the statistics the serve summary JSON reports.
func summaryHash(missRatio, totalPrecision float64, counters []sched.TaskCounter) uint64 {
	h := newHasher()
	h.word(math.Float64bits(missRatio))
	h.word(math.Float64bits(totalPrecision))
	for _, c := range counters {
		h.word(c.Released)
		h.word(c.Completed)
		h.word(c.Missed)
	}
	return h.h.Sum64()
}

// recorderHash hashes every series of a recorder — names and the exact
// bits of every sample — in output order.
func recorderHash(rec *trace.Recorder) uint64 {
	h := newHasher()
	rec.EachSeries(func(s *trace.Series) {
		h.h.Write([]byte(s.Name))
		h.word(uint64(len(s.T)))
		for i := range s.T {
			h.word(math.Float64bits(s.T[i]))
			h.word(math.Float64bits(s.V[i]))
		}
	})
	return h.h.Sum64()
}
