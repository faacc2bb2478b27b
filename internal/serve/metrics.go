package serve

import (
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Timing is the flat per-request stage breakdown, in wall nanoseconds:
// queue_wait is admission to worker pickup, batch_wait is pickup to run
// start (≈0; only a test hook waits there), run is the simulation itself,
// serialize is response encoding. Every response carries its own Timing;
// the registry aggregates them for the /v1/metrics endpoint.
type Timing struct {
	QueueWaitNs int64
	BatchWaitNs int64
	RunNs       int64
	SerializeNs int64
}

// TotalNs is the end-to-end service time the runtime controlled.
func (t Timing) TotalNs() int64 {
	return t.QueueWaitNs + t.BatchWaitNs + t.RunNs + t.SerializeNs
}

// histogram buckets and sub-bucket resolution: values are classed by
// their bit length (log2 major bucket) and the next subBits mantissa bits
// (linear minor bucket), giving percentile estimates within 1/2^subBits
// relative error at fixed memory. 64 majors x 8 minors x 8 B = 4 KiB.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	numBuckets = 64 * subBuckets
)

// histogram is a lock-free log-linear latency histogram. observe is
// called from worker goroutines; snapshots are read racily by the
// metrics endpoint — each counter is individually atomic, which is the
// accuracy an operational latency readout needs.
type histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v) // exact for tiny values; major 0..subBuckets share it
	}
	n := bits.Len64(uint64(v)) // >= subBits+1 here
	shift := uint(n - subBits - 1)
	minor := int(uint64(v)>>shift) & (subBuckets - 1)
	return (n-subBits)*subBuckets + minor
}

// bucketLow returns the smallest value mapping to bucket i — the
// conservative (lower-bound) value percentile scans report.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	major := i / subBuckets
	minor := i % subBuckets
	return (int64(subBuckets) | int64(minor)) << uint(major-1)
}

// observe records one value.
//
//lint:noalloc atomic bumps into fixed arrays
func (h *histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// percentile returns a lower bound on the p-quantile (0 < p <= 1) of the
// observed values, or 0 when empty.
func (h *histogram) percentile(p float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen > rank {
			return bucketLow(i)
		}
	}
	return h.max.Load()
}

// mean returns the exact running mean.
func (h *histogram) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// stageNames index the per-stage histograms, in CSV row order.
var stageNames = [...]string{"queue_wait", "batch_wait", "run", "serialize", "total"}

const (
	stageQueueWait = iota
	stageBatchWait
	stageRun
	stageSerialize
	stageTotal
	numStages
)

// Registry aggregates the server's operational metrics: per-stage latency
// histograms plus admission counters. All methods are safe for concurrent
// use from handlers and workers.
type Registry struct {
	stages [numStages]histogram

	accepted  atomic.Uint64 // requests admitted to the queue
	rejected  atomic.Uint64 // 429s: queue full
	unavail   atomic.Uint64 // 503s: draining
	completed atomic.Uint64 // responses delivered (success or run error)
	runErrors atomic.Uint64 // runs that returned an error
	panics    atomic.Uint64 // runs that panicked (answered 500, session dropped)

	// runEWMA tracks a smoothed per-run wall time (ns) for Retry-After
	// estimates. Plain atomic store/load: workers race, precision is not
	// needed.
	runEWMA atomic.Int64
}

// observe folds one completed request's timings into the registry. It sits
// on every request's hot path, so its whole reach is certified: fixed-size
// atomic histograms, no allocation, no locks, no panics.
//
//lint:certify noalloc,nopanic,noblock,deterministic per-request metrics fold: atomic bumps into fixed histograms
//lint:noalloc atomic bumps into fixed histograms
func (m *Registry) observe(t Timing) {
	m.stages[stageQueueWait].observe(t.QueueWaitNs)
	m.stages[stageBatchWait].observe(t.BatchWaitNs)
	m.stages[stageRun].observe(t.RunNs)
	m.stages[stageSerialize].observe(t.SerializeNs)
	m.stages[stageTotal].observe(t.TotalNs())
	old := m.runEWMA.Load()
	if old == 0 {
		m.runEWMA.Store(t.RunNs)
	} else {
		m.runEWMA.Store(old - old/8 + t.RunNs/8)
	}
}

// Percentile returns a lower bound on the p-quantile of total request
// latency in nanoseconds.
func (m *Registry) Percentile(p float64) int64 {
	return m.stages[stageTotal].percentile(p)
}

// StagePercentile returns a lower bound on the p-quantile of one stage
// ("queue_wait", "batch_wait", "run", "serialize", "total").
func (m *Registry) StagePercentile(stage string, p float64) int64 {
	for i, n := range stageNames {
		if n == stage {
			return m.stages[i].percentile(p)
		}
	}
	return 0
}

// Completed returns the number of responses delivered.
func (m *Registry) Completed() uint64 { return m.completed.Load() }

// Accepted returns the number of requests admitted to the queue.
func (m *Registry) Accepted() uint64 { return m.accepted.Load() }

// Rejected returns the number of 429 rejections.
func (m *Registry) Rejected() uint64 { return m.rejected.Load() }

// AppendCSV renders the aggregate as flat CSV — one row per stage with
// count, mean and tail percentiles, then one row per counter — the
// colfmt-adjacent "wide" shape the analysis tooling slurps directly.
func (m *Registry) AppendCSV(dst []byte) []byte {
	dst = append(dst, "stage,count,mean_ns,p50_ns,p95_ns,p99_ns,max_ns\n"...)
	for i := range m.stages {
		h := &m.stages[i]
		dst = append(dst, stageNames[i]...)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, h.count.Load(), 10)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, h.mean(), 'f', 1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, h.percentile(0.50), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, h.percentile(0.95), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, h.percentile(0.99), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, h.max.Load(), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, "counter,value\n"...)
	for _, c := range [...]struct {
		name string
		v    uint64
	}{
		{"accepted", m.accepted.Load()},
		{"rejected_429", m.rejected.Load()},
		{"unavailable_503", m.unavail.Load()},
		{"completed", m.completed.Load()},
		{"run_errors", m.runErrors.Load()},
		{"run_panics", m.panics.Load()},
	} {
		dst = append(dst, c.name...)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, c.v, 10)
		dst = append(dst, '\n')
	}
	return dst
}
