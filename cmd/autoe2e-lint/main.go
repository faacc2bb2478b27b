// Command autoe2e-lint runs the repository's custom invariant-checking
// analyzers (internal/lint) over every package in the module and reports
// violations with file:line:col positions. It exits non-zero when any
// violation is found, so it can gate CI.
//
// Usage:
//
//	autoe2e-lint [-only name,name] [-list] [-effects-report]
//	             [-timing] [-budget 60s] [packages]
//
// The package arguments are accepted for familiarity ("./...") but the
// tool always loads the whole module containing the working directory:
// the invariants are module-wide by design.
//
// Beyond the module's non-test packages, the value-level analyzers
// mapiter and floateq also run over _test.go files, loaded on the same
// Loader so the module's packages are checked once: tests compare
// floats and iterate maps as readily as product code, and a
// nondeterministic assertion is a flaky test. A run of the whole suite
// (no -only) also reports every //lint:allow that suppressed nothing.
//
// -effects-report prints the interprocedural certification summary: every
// //lint:certify entry point with its verdict, reach, unresolved-edge
// count, and residual effects, plus the declared hookpoint boundaries.
//
// -timing prints the wall time of the module load, each analyzer, the
// test-file load and the test-file pass; -budget fails the run when their
// total exceeds the given duration, keeping `make lint` honest about its
// CI cost.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/autoe2e/autoe2e/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("autoe2e-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list the analyzers and exit")
	effectsReport := fs.Bool("effects-report", false, "print the //lint:certify certification summary and exit")
	timing := fs.Bool("timing", false, "print the wall time of each load and analyzer")
	budget := fs.Duration("budget", 0, "fail if the total load and analyzer time exceeds this duration (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "autoe2e-lint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(stderr, "autoe2e-lint:", err)
		return 2
	}
	if *only != "" {
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *effectsReport {
		pkgs, err := lint.NewLoader().LoadModule(root)
		if err != nil {
			fmt.Fprintln(stderr, "autoe2e-lint:", err)
			return 2
		}
		report, diags, err := lint.EffectsReport(pkgs)
		if err != nil {
			fmt.Fprintln(stderr, "autoe2e-lint:", err)
			return 2
		}
		fmt.Fprint(stdout, report)
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}

	res, err := lint.Lint(root, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "autoe2e-lint:", err)
		return 2
	}
	diags := res.Diagnostics
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}

	var total time.Duration
	for _, tm := range res.Timings {
		total += tm.Elapsed
	}
	if *timing {
		for _, tm := range res.Timings {
			fmt.Fprintf(stderr, "autoe2e-lint: %-24s %8.0fms\n", tm.Analyzer, tm.Elapsed.Seconds()*1000)
		}
		fmt.Fprintf(stderr, "autoe2e-lint: %-24s %8.0fms\n", "total", total.Seconds()*1000)
	}

	code := 0
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "autoe2e-lint: %d violation(s) in %d package(s) checked\n", len(diags), res.Packages)
		code = 1
	}
	if *budget > 0 && total > *budget {
		fmt.Fprintf(stderr, "autoe2e-lint: lint time %s exceeds budget %s\n", total.Round(time.Millisecond), *budget)
		code = 1
	}
	return code
}
