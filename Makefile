# The full verification gate. `make ci` is exactly what GitHub Actions
# runs (.github/workflows/ci.yml), so the gate is identical locally and
# in CI.

GO ?= go

.PHONY: all build test race lint fmt vet bench profile profile-layers perfbench-smoke fuzz-smoke loc ci

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
# pooled-type reset completeness, and the interprocedural effect
# certifications (//lint:certify roots, whose noalloc contracts read the
# compiler's escape analysis, and parallel worker-closure safety), plus
# stale //lint:allow annotations. See the Invariants and "Ownership &
# lifetimes" sections of DESIGN.md. The module load takes the package
# graph, build-constraint file lists and standard-library export data
# from one `go list -export` run. -timing prints the wall time of the
# module load, each analyzer and the test-file load and pass, and -budget
# fails the gate if their total exceeds a minute, so a load or analyzer
# whose cost regresses shows up here before it slows every CI run.
lint:
	$(GO) run ./cmd/autoe2e-lint -timing -budget 60s ./...

# bench times the control-plane hot paths — the combined inner+outer
# controller tick, the Equation-8 knapsack ablation, the constrained
# least-squares kernel, the raw scheduler throughput, the fleet-scale
# batch runtime (fresh vs reused-session vs streaming runs/sec), the
# serving layer (admission + worker pickup + warm-session requests/sec with
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

# profile-layers CPU-profiles the warm fork path — BenchmarkForkFanout at
# fan-out 8: the Figure 8 testbed prefix to 300 s, then 8 forks resumed on
# warm sessions — and prints the flat CPU share folded by package, so a
# hot-path change shows which layer it moved: simtime (event engine), sched
# (RMS substrate), exectime, eucon (inner MPC), linalg (its solver),
# precision (outer tier), trace (recording), core, runtime and the rest.
# The profile and test binary land in $(PROFILE_DIR) (gitignored); inspect
# them further with `go tool pprof $(PROFILE_DIR)/bench.test
# $(PROFILE_DIR)/cpu.pprof`.
PROFILE_DIR ?= .profile
profile-layers:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkForkFanout$$/^fanout=8$$' -benchtime 20x \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -o $(PROFILE_DIR)/bench.test .
	@$(GO) tool pprof -top -unit=ms -nodecount=1000000 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/cpu.pprof 2>/dev/null | awk '\
	/^ *[0-9.]+ms +[0-9.]+%/ { \
		ms=$$1; sub(/ms$$/, "", ms); \
		name=$$6; for (i=7; i<=NF; i++) name=name " " $$i; \
		pkg=name; sub(/ \(inline\)$$/, "", pkg); sub(/\[.*$$/, "", pkg); \
		slash=match(pkg, /\/[^\/]*$$/); \
		head=(slash ? substr(pkg, 1, slash) : ""); rest=(slash ? substr(pkg, slash+1) : pkg); \
		sub(/\..*$$/, "", rest); pkg=head rest; \
		sub(/^github\.com\/autoe2e\/autoe2e\/(internal\/)?/, "", pkg); \
		flat[pkg]+=ms; total+=ms; \
	} \
	END { \
		if (!total) { print "no samples parsed" > "/dev/stderr"; exit 1 } \
		printf "%-28s %10s %7s\n", "package", "flat_ms", "share"; \
		for (p in flat) printf "%-28s %10.0f %6.1f%%\n", p, flat[p], 100*flat[p]/total | "sort -k2,2nr"; \
	}'

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

# fuzz-smoke runs every native fuzz target — the three colfmt codec
# targets, the inner MPC solver's, the serve request boundary's (decode
# and validation only) and the fork-versus-replay target (each input runs
# a scenario three times, so it gets fewer inputs) — for a fixed number of
# inputs (-fuzztime Nx, so the amount of work does not depend on machine
# speed) on one worker. go test fuzzes one target per invocation, hence
# one line each. A failing input is written under the package's
# testdata/fuzz/ for replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 5000x -parallel 1 ./internal/trace/colfmt
	$(GO) test -run '^$$' -fuzz '^FuzzRunRoundTrip$$' -fuzztime 5000x -parallel 1 ./internal/trace/colfmt
	$(GO) test -run '^$$' -fuzz '^FuzzReaderRobustness$$' -fuzztime 5000x -parallel 1 ./internal/trace/colfmt
	$(GO) test -run '^$$' -fuzz '^FuzzSolveNormal$$' -fuzztime 5000x -parallel 1 ./internal/eucon
	$(GO) test -run '^$$' -fuzz '^FuzzRequestBoundary$$' -fuzztime 5000x -parallel 1 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzForkMatchesReplay$$' -fuzztime 50x -parallel 1 ./internal/scenario

# loc prints the production Go line count per package directory and the
# total: every .go file except _test.go files, skipping the directories
# the go tool skips (testdata, vendor, _*, .*), so _perfbench is out too.
# A change that claims to make the code smaller quotes the total before
# and after. Not part of `make ci`.
loc:
	@find . \( -name testdata -o -name vendor -o -name '_*' -o -name '.?*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | sort | xargs wc -l | awk '\
	$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt vet lint build test race fuzz-smoke perfbench-smoke
