// Command perfbench is the repository benchmark: it runs one workload
// against the public API of internal/core and internal/serve, verifies
// every output it times, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output:
//
//	go run . --workload fork-testbed --seed 1 --seconds 55 --trace 0
//
// Workloads: fork-testbed and serve-open, as BENCHMARK.json declares them.
// All times are host wall time; simulated statistics appear only in the
// digest line, which must repeat exactly for a given seed.
// A failed verification prints the result with "correct": false and exits
// with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; --trace 0 prints
// them. They mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"lat_ms.p50", "ms"},
	{"lat_ms.p95", "ms"},
	{"heap_live_mb", "MiB"},
	{"alloc_kb_per_run", "KiB"},
}

// perLayer are the single-layer metrics of the traced run (--trace 1).
// Layers a workload does not exercise report 0: the serve and loadgen
// figures on fork-testbed, the branch-point figures on serve-open.
var perLayer = []metricDef{
	{"sched.jobs_per_run", "count"},
	{"sched.chains_per_run", "count"},
	{"sched.missed_per_run", "count"},
	{"substrate.ns_per_job", "ns"},
	{"eucon.ticks_per_run", "count"},
	{"eucon.tick_us.p50", "us"},
	{"eucon.tick_us.p99", "us"},
	{"eucon.share", "ratio"},
	{"precision.outer_ticks_per_run", "count"},
	{"precision.shed_per_run", "count"},
	{"precision.restore_rounds_per_run", "count"},
	{"precision.outer_tick_us.p50", "us"},
	{"trace.samples_per_run", "count"},
	{"trace.clone_us.p50", "us"},
	{"colfmt.encode_us.p50", "us"},
	{"colfmt.bytes_per_run", "B"},
	{"core.run_ms.p50", "ms"},
	{"core.run_ms.p99", "ms"},
	{"core.rebuild_ms", "ms"},
	{"core.prefix_ms", "ms"},
	{"core.snapshot_us", "us"},
	{"core.restore_us", "us"},
	{"core.resume_ms.p50", "ms"},
	{"core.reconcile_residual", "ratio"},
	{"parallel.busy_ratio", "ratio"},
	{"tracing.overhead_ratio", "ratio"},
	{"serve.queue_wait_us.p50", "us"},
	{"serve.queue_wait_us.p99", "us"},
	{"serve.batch_wait_us.p50", "us"},
	{"serve.batch_wait_us.p99", "us"},
	{"serve.run_us.p50", "us"},
	{"serve.run_us.p99", "us"},
	{"serve.serialize_us.p50", "us"},
	{"serve.serialize_us.p99", "us"},
	{"serve.http_us.p50", "us"},
	{"serve.reject_ratio", "ratio"},
	{"serve.accepted", "count"},
	{"serve.completed", "count"},
	{"slo_ok_ratio", "ratio"},
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.offered_rps", "1/s"},
}

var workloads = map[string]func(*bench) error{
	"fork-testbed": forkTestbed,
	"serve-open":   serveOpen,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes one workload and writes the report, ending with the result
// line. It returns the result (nil if the workload could not run).
func run(w io.Writer, b *bench) (*resultOut, error) {
	fn, ok := workloads[b.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", b.workload)
	}
	if b.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be > 0")
	}
	runtime.GOMAXPROCS(workers)
	start := time.Now()
	if err := fn(b); err != nil {
		return nil, err
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res := &resultOut{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricOut{},
	}
	src := b.e2e
	if b.traced {
		src = b.layer
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v (%.1f s)\n",
		b.workload, b.seed, b.seconds, b.traced, time.Since(start).Seconds())
	fmt.Fprintf(w, "digest %s\n", b.digest)
	fmt.Fprintf(w, "setup trials (s) %.4f\n", b.setupTimes)
	for _, n := range b.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, f := range b.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "%-34s %.6g %s\n", "fail_ratio", float64(b.failed)/float64(max(b.attempted, 1)), "ratio")
	for _, d := range defs {
		v := src[d.name]
		fmt.Fprintf(w, "%-34s %.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fork-testbed or serve-open")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, newBench(*name, *seed, *seconds, *traced == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
