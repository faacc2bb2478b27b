# The full verification gate. `make ci` is exactly what GitHub Actions
# runs (.github/workflows/ci.yml), so the gate is identical locally and
# in CI.

GO ?= go

.PHONY: all build test race lint fmt vet bench profile perfbench-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# autoe2e-lint is this repository's own invariant checker (internal/lint):
# determinism, simtime-only durations, float equality, map-iteration
# order, panic discipline, typed physical units, owned-buffer lifetimes,
# pooled-type reset completeness, the //lint:noalloc escape gate, and the
# interprocedural effect certifications (//lint:certify roots, parallel
# worker-closure safety). See the Invariants and "Ownership & lifetimes"
# sections of DESIGN.md. -timing prints each analyzer's wall time and
# -budget fails the gate if the whole run exceeds a minute, so an analyzer
# whose cost regresses shows up here before it slows every CI run.
lint:
	$(GO) run ./cmd/autoe2e-lint -timing -budget 60s ./...

# bench times the control-plane hot paths — the combined inner+outer
# controller tick, the Equation-8 knapsack ablation, the constrained
# least-squares kernel, the raw scheduler throughput, the fleet-scale
# batch runtime (fresh vs reused-session vs streaming runs/sec), the
# serving layer (admission + batching + warm-session requests/sec with
# p50/p95/p99 latency, per core count) and the columnar trace codec
# (campaign bytes per retained run) — and records ns/op, B/op, allocs/op
# plus every custom b.ReportMetric figure in BENCH_control.json so both
# speed and memory-discipline regressions show up in review diffs.
BENCH_SET = BenchmarkControllerOverhead|BenchmarkAblationKnapsackOrder|BenchmarkBoxLSQ|BenchmarkSchedulerThroughput|BenchmarkSchedulerSteadyState|BenchmarkFleetThroughput|BenchmarkServeThroughput|BenchmarkTraceEncode|BenchmarkTraceDecode|BenchmarkForkFanout|BenchmarkSnapshotRestore|BenchmarkLintLoader
bench:
	@out="$$($(GO) test -run '^$$' -bench '^($(BENCH_SET))$$' -benchmem .)"; \
	echo "$$out"; \
	echo "$$out" | awk '\
	/^Benchmark/ { \
		name=$$1; sub(/-[0-9]+$$/, "", name); \
		ns=""; bytes=""; allocs=""; extras=""; \
		for (i=2; i<NF; i++) { \
			u=$$(i+1); \
			if (u=="ns/op") ns=$$i; \
			else if (u=="B/op") bytes=$$i; \
			else if (u=="allocs/op") allocs=$$i; \
			else if (u ~ /^[A-Za-z_][A-Za-z0-9_]*$$/ && $$i ~ /^[0-9.eE+-]+$$/) \
				extras = extras sprintf(", \"%s\": %s", u, $$i); \
		} \
		if (ns=="") next; \
		if (bytes=="") bytes="null"; \
		if (allocs=="") allocs="null"; \
		if (n++) printf ",\n"; else printf "{\n  \"benchmarks\": [\n"; \
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", name, $$2, ns, bytes, allocs, extras; \
	} \
	END { if (n) printf "\n  ]\n}\n"; else { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 } }' \
	> BENCH_control.json; \
	echo "wrote BENCH_control.json"

# profile captures CPU and allocation profiles of the controller hot path
# (BenchmarkControllerOverhead) for `go tool pprof cpu.pprof` /
# `go tool pprof mem.pprof`. The profiles are scratch output (gitignored).
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkControllerOverhead$$' -benchtime 3s \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof — inspect with: $(GO) tool pprof {cpu,mem}.pprof"

# perfbench-smoke builds the repository benchmark (_perfbench, a nested
# module that `go build ./...` and `go test ./...` skip because of its
# leading underscore) against this tree and runs its short smoke test, so
# a change to the serve or core API that breaks the benchmark fails the
# gate. The environment is the one _perfbench/run.sh exports: every file
# the build writes stays under $(PERFBENCH_BUILD).
PERFBENCH_BUILD ?= $(if $(CARGO_TARGET_DIR),$(CARGO_TARGET_DIR),$(CURDIR)/.bench_build)
perfbench-smoke:
	mkdir -p $(PERFBENCH_BUILD)/gocache $(PERFBENCH_BUILD)/tmp $(PERFBENCH_BUILD)/config
	cd _perfbench && GOCACHE=$(PERFBENCH_BUILD)/gocache TMPDIR=$(PERFBENCH_BUILD)/tmp \
		XDG_CONFIG_HOME=$(PERFBENCH_BUILD)/config GOPATH=$(PERFBENCH_BUILD)/gopath \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod $(GO) test -short .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt vet lint build test race perfbench-smoke
