// Package serve is the network-facing face of the batch runtime: a
// long-running HTTP/JSON service that admits simulation run requests and
// sweep campaigns into a bounded queue, drains it with work-conserving
// session workers, and answers with summary JSON or columnar binary
// traces.
//
// Every request takes one path. It resolves to n ≥ 1 runs of one spec that
// differ only in their noise seed (n = 1 for POST /v1/run and Execute),
// carried by one pooled group; one all-or-nothing reservation admits the
// group or answers 429/503, the worker finishing its last run signals its
// one completion channel, and the caller frames the response from the
// group's per-run buffers.
//
// The paper positions AutoE2E as middleware; this package is the
// deployment shape of the reproduction — simulation as a service. The hot
// path reuses the de-allocated batch machinery end to end: every worker
// owns warm core.Sessions keyed by workload shape, execution-time models
// are reseeded in place rather than rebuilt, and responses are serialized
// into pooled buffers, so a warm server runs a request with near-zero
// allocations on top of the run itself (pinned by the alloc-gate test).
//
// Unlike every other internal package, serve lives on the wall clock by
// design — per-stage latency stamps, Retry-After estimates. The
// nodeterminism analyzer sanctions exactly this package for wall-clock
// use; simulation time stays inside the sessions.
package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// WorkloadSpec names a task system. Name is "testbed", "simulation", or
// "synthetic"; the synthetic generator additionally needs Seed, ECUs and
// Tasks. Equal specs resolve to the same *taskmodel.System instance, which
// is what keeps per-worker sessions warm across requests.
type WorkloadSpec struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed,omitempty"`
	ECUs  int    `json:"ecus,omitempty"`
	Tasks int    `json:"tasks,omitempty"`
}

// NoiseSpec is seeded multiplicative execution-time noise (the paper's
// runtime uncertainty). Spread 0 means nominal execution times.
type NoiseSpec struct {
	Spread float64 `json:"spread"`
	Seed   int64   `json:"seed"`
}

// Trace selects the response body of a run.
const (
	// TraceSummary returns the JSON run summary (the default).
	TraceSummary = "summary"
	// TraceColfmt returns the full trace as colfmt binary columns
	// (application/octet-stream), zero-copy from the recorder path.
	TraceColfmt = "colfmt"
)

// RunSpec is the wire form of one simulation request.
type RunSpec struct {
	Workload  WorkloadSpec `json:"workload"`
	Mode      string       `json:"mode,omitempty"` // "open" | "eucon" | "autoe2e" (default)
	DurationS float64      `json:"duration_s"`
	Noise     NoiseSpec    `json:"noise,omitempty"`
	Trace     string       `json:"trace,omitempty"` // TraceSummary (default) | TraceColfmt
}

// SweepSpec is the wire form of a seed sweep: Base run repeated once per
// noise seed. Seeds lists them explicitly; Count is shorthand for seeds
// 1..Count. Exactly one of the two must be set.
type SweepSpec struct {
	Base  RunSpec `json:"base"`
	Seeds []int64 `json:"seeds,omitempty"`
	Count int     `json:"count,omitempty"`
}

// maxSweepRuns bounds one sweep request; larger campaigns must be split
// so no single request can occupy the admission queue indefinitely.
const maxSweepRuns = 4096

// parseMode maps the wire mode onto the middleware arm.
func parseMode(s string) (core.Mode, error) {
	switch s {
	case "", "autoe2e":
		return core.ModeAutoE2E, nil
	case "eucon":
		return core.ModeEUCON, nil
	case "open":
		return core.ModeOpen, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want open, eucon, or autoe2e)", s)
	}
}

// maxSystems caps the interned-system cache. Past it an arbitrary entry is
// dropped before a new spec is interned, so a client cycling synthetic
// seeds cannot grow server memory without bound. A dropped spec that comes
// back is interned afresh; sessions warm on the old pointer rebuild once.
const maxSystems = 256

// systemCache interns resolved task systems by spec, so every request for
// the same workload shares one *System pointer — the identity Session
// warm-run reuse keys on.
var systemCache struct {
	mu sync.Mutex
	m  map[WorkloadSpec]*taskmodel.System
}

// resolveSystem returns the interned system for a validated spec.
func resolveSystem(ws WorkloadSpec) (*taskmodel.System, error) {
	systemCache.mu.Lock()
	defer systemCache.mu.Unlock()
	if sys, ok := systemCache.m[ws]; ok {
		return sys, nil
	}
	var sys *taskmodel.System
	switch ws.Name {
	case "testbed":
		if ws.Seed != 0 || ws.ECUs != 0 || ws.Tasks != 0 {
			return nil, fmt.Errorf("workload %q takes no seed/ecus/tasks", ws.Name)
		}
		sys = workload.Testbed()
	case "simulation":
		if ws.Seed != 0 || ws.ECUs != 0 || ws.Tasks != 0 {
			return nil, fmt.Errorf("workload %q takes no seed/ecus/tasks", ws.Name)
		}
		sys = workload.Simulation()
	case "synthetic":
		if ws.ECUs <= 0 || ws.Tasks <= 0 {
			return nil, fmt.Errorf("synthetic workload needs ecus > 0 and tasks > 0")
		}
		if ws.ECUs > 64 || ws.Tasks > 1024 {
			return nil, fmt.Errorf("synthetic workload too large (max 64 ECUs, 1024 tasks)")
		}
		sys = workload.Synthetic(ws.Seed, ws.ECUs, ws.Tasks)
	default:
		return nil, fmt.Errorf("unknown workload %q (want testbed, simulation, or synthetic)", ws.Name)
	}
	if systemCache.m == nil {
		systemCache.m = make(map[WorkloadSpec]*taskmodel.System)
	}
	if len(systemCache.m) >= maxSystems {
		for k := range systemCache.m {
			delete(systemCache.m, k)
			break
		}
	}
	systemCache.m[ws] = sys
	return sys, nil
}

// shapeKey identifies the session shape a request needs: the system
// identity plus the middleware arm. A worker keeps one warm session per
// key, so requests with equal keys reuse it.
type shapeKey struct {
	wl   WorkloadSpec
	mode core.Mode
}

// resolved is a validated, admission-ready request: the spec with its
// system interned and enums parsed.
type resolved struct {
	sys       *taskmodel.System
	mode      core.Mode
	duration  simtime.Duration
	durationS float64
	noise     NoiseSpec
	noiseOn   bool
	colfmt    bool
	shape     shapeKey

	// runs is the number of noise seeds the request covers, in
	// [1, maxSweepRuns]: 1 for a single run. Run i draws seed seeds[i], or
	// noise.Seed+i when seeds is nil.
	runs  int
	seeds []int64
	sweep bool // answer in the sweep framing ({"runs":[...]}, X-Autoe2e-Runs)

	// hook, when non-nil, runs on the worker just before the run. Test
	// support only (never settable from the wire): tests use it to park a
	// worker deterministically instead of racing against simulation wall
	// time, or to inject a panic into one run.
	hook func()
}

// seed returns run i's noise seed.
func (r *resolved) seed(i int) int64 {
	if r.seeds != nil {
		return r.seeds[i]
	}
	return r.noise.Seed + int64(i)
}

// resolve validates a RunSpec and interns its workload: a single run.
// Anything that passes here (or resolveSweep) is admission-ready and will
// run once admitted.
func resolve(spec *RunSpec) (resolved, error) {
	var r resolved
	mode, err := parseMode(spec.Mode)
	if err != nil {
		return r, err
	}
	if spec.DurationS <= 0 {
		return r, fmt.Errorf("duration_s = %v, want > 0", spec.DurationS)
	}
	if spec.DurationS > 3600 {
		return r, fmt.Errorf("duration_s = %v exceeds the 3600 s request cap", spec.DurationS)
	}
	duration := simtime.FromSeconds(spec.DurationS)
	if duration <= 0 {
		return r, fmt.Errorf("duration_s = %v rounds to 0 at the 1 µs simulation clock", spec.DurationS)
	}
	if spec.Noise.Spread < 0 || spec.Noise.Spread >= 1 {
		return r, fmt.Errorf("noise.spread = %v, want [0, 1)", spec.Noise.Spread)
	}
	switch spec.Trace {
	case "", TraceSummary:
		r.colfmt = false
	case TraceColfmt:
		r.colfmt = true
	default:
		return r, fmt.Errorf("unknown trace %q (want %q or %q)", spec.Trace, TraceSummary, TraceColfmt)
	}
	sys, err := resolveSystem(spec.Workload)
	if err != nil {
		return r, err
	}
	r.sys = sys
	r.mode = mode
	r.duration = duration
	r.durationS = spec.DurationS
	r.noise = spec.Noise
	r.noiseOn = spec.Noise.Spread > 0
	r.shape = shapeKey{wl: spec.Workload, mode: mode}
	r.runs = 1
	return r, nil
}

// resolveSweep validates a SweepSpec into one request over its seeds. The
// run count is bounded — by maxSweepRuns and then by queueDepth, since a
// group must fit the admission queue whole — before anything is sized by
// it; Count seeds are 1..Count and never materialized.
func resolveSweep(spec *SweepSpec, queueDepth int) (resolved, error) {
	n := len(spec.Seeds)
	switch {
	case n > 0 && spec.Count > 0, n == 0 && spec.Count <= 0:
		return resolved{}, errors.New("sweep: set exactly one of seeds and count")
	case n == 0:
		n = spec.Count
	}
	if n > maxSweepRuns {
		return resolved{}, errors.New("sweep exceeds " + strconv.Itoa(maxSweepRuns) + " runs; split the campaign")
	}
	if n > queueDepth {
		return resolved{}, errors.New("sweep exceeds the admission queue depth (" + strconv.Itoa(queueDepth) + "); split the campaign")
	}
	r, err := resolve(&spec.Base)
	if err != nil {
		return r, err
	}
	if n > 1 && !r.noiseOn {
		return r, errors.New("sweep over multiple seeds needs base.noise.spread > 0 (seeds select noise streams)")
	}
	r.runs, r.sweep = n, true
	if len(spec.Seeds) > 0 {
		r.seeds = spec.Seeds
	} else {
		r.noise.Seed = 1
	}
	return r, nil
}

// appendSummary renders the run summary JSON onto dst and returns the
// extended buffer. This is the canonical summary encoding: the golden
// tests require a server response's summary section to be byte-identical
// to appendSummary over the library core.RunAll result for the same
// config.
//
//lint:certify noalloc appends into a caller-grown buffer; strconv.Append* writes in place
func appendSummary(dst []byte, mode core.Mode, durationS float64, res *core.RunResult) []byte {
	dst = append(dst, `{"mode":"`...)
	// Inlined Mode.String for the three valid arms: its default case
	// formats through fmt, which escape analysis would charge to this
	// function. parseMode guarantees one of these.
	switch mode {
	case core.ModeOpen:
		dst = append(dst, "OPEN"...)
	case core.ModeEUCON:
		dst = append(dst, "EUCON"...)
	default:
		dst = append(dst, "AutoE2E"...)
	}
	dst = append(dst, `","duration_s":`...)
	dst = strconv.AppendFloat(dst, durationS, 'g', -1, 64)
	dst = append(dst, `,"miss_ratio":`...)
	dst = strconv.AppendFloat(dst, res.OverallMissRatio(), 'g', -1, 64)
	dst = append(dst, `,"total_precision":`...)
	dst = strconv.AppendFloat(dst, res.State.TotalPrecision(), 'g', -1, 64)
	dst = append(dst, `,"counters":[`...)
	for i, c := range res.Counters {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"released":`...)
		dst = strconv.AppendUint(dst, c.Released, 10)
		dst = append(dst, `,"completed":`...)
		dst = strconv.AppendUint(dst, c.Completed, 10)
		dst = append(dst, `,"missed":`...)
		dst = strconv.AppendUint(dst, c.Missed, 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `]}`...)
	return dst
}

// appendTiming renders the flat per-request timing block onto dst.
//
//lint:certify noalloc appends into a caller-grown buffer; strconv.Append* writes in place
func appendTiming(dst []byte, t Timing) []byte {
	dst = append(dst, `{"queue_wait_ns":`...)
	dst = strconv.AppendInt(dst, t.QueueWaitNs, 10)
	dst = append(dst, `,"batch_wait_ns":`...)
	dst = strconv.AppendInt(dst, t.BatchWaitNs, 10)
	dst = append(dst, `,"run_ns":`...)
	dst = strconv.AppendInt(dst, t.RunNs, 10)
	dst = append(dst, `,"serialize_ns":`...)
	dst = strconv.AppendInt(dst, t.SerializeNs, 10)
	dst = append(dst, '}')
	return dst
}

// appendError renders the uniform JSON error body. retryAfterS > 0 adds
// the machine-readable mirror of the Retry-After header.
func appendError(dst []byte, msg string, retryAfterS int) []byte {
	dst = append(dst, `{"error":`...)
	dst = strconv.AppendQuote(dst, msg)
	if retryAfterS > 0 {
		dst = append(dst, `,"retry_after_s":`...)
		dst = strconv.AppendInt(dst, int64(retryAfterS), 10)
	}
	dst = append(dst, '}')
	return dst
}
