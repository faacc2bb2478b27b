package lint

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/autoe2e/autoe2e/internal/lint/callgraph"
)

// Timing is the wall-clock cost of one step of a lint run — a load or an
// analyzer — surfaced by the driver so `make lint` can print it and
// enforce the CI budget.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// ModulePass carries every loaded package through one module-scoped
// analyzer. All packages must share one token.FileSet (the Loader
// guarantees this).
type ModulePass struct {
	Packages []*Package

	analyzer *Analyzer
	report   func(Diagnostic)
	allow    allowSet
	shared   *moduleShared
}

// moduleShared holds per-run state shared between module analyzers —
// most importantly the call graph, which effects and parsafe both need
// but only one should pay for.
type moduleShared struct {
	graphOnce sync.Once
	graph     *callgraph.Graph
}

// Fset returns the file set positioning every package of the pass.
func (p *ModulePass) Fset() *token.FileSet { return p.Packages[0].Fset }

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset().Position(pos), format, args...)
}

// ReportAt records a diagnostic at an externally-computed position.
func (p *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowAt returns the //lint:allow token naming this analyzer that
// covers pos (same line, else the line above), without marking it used:
// a module analyzer that drops a fact on an allowed line decides itself
// when the allow has earned its keep.
func (p *ModulePass) allowAt(pos token.Position) *allowToken {
	return p.allow.match(pos, p.analyzer.Name)
}

// Graph returns the whole-module call graph, built on first use and
// shared across the run's module analyzers.
func (p *ModulePass) Graph() *callgraph.Graph {
	p.shared.graphOnce.Do(func() {
		cgPkgs := make([]*callgraph.Package, len(p.Packages))
		for i, pkg := range p.Packages {
			cgPkgs[i] = &callgraph.Package{
				Path:  pkg.Path,
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Pkg:   pkg.Pkg,
				Info:  pkg.Info,
			}
		}
		p.shared.graph = callgraph.Build(cgPkgs)
	})
	return p.shared.graph
}

// RunModule applies each analyzer to the module and returns the
// surviving diagnostics, sorted by position. Per-package analyzers run
// once per package; module analyzers (Analyzer.RunModule) run once over
// all packages. //lint:allow annotations are merged module-wide, and
// allow hygiene runs once per package as usual. When analyzers is the
// whole suite, every allow token that suppressed nothing is reported as
// stale.
func RunModule(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	allow := make(allowSet)
	out, _ := runModule(pkgs, analyzers, allow)
	if fullSuite(analyzers) {
		out = append(out, allow.stale()...)
	}
	slices.SortFunc(out, compareDiagnostics)
	return out
}

// runModule is RunModule over a caller-held allow set, unsorted and with
// per-analyzer wall times, so the module and test-file passes of one Lint
// run share allow usage.
func runModule(pkgs []*Package, analyzers []*Analyzer, allow allowSet) ([]Diagnostic, []Timing) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, collectAllows(allow, pkg.Fset, pkg.Files)...)
	}
	report := func(d Diagnostic) {
		if allow.allows(d.Pos, d.Analyzer) {
			return
		}
		out = append(out, d)
	}

	shared := &moduleShared{}
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		elapsed := timed(func() {
			if a.RunModule != nil {
				a.RunModule(&ModulePass{
					Packages: pkgs,
					analyzer: a,
					report:   report,
					allow:    allow,
					shared:   shared,
				})
				return
			}
			for _, pkg := range pkgs {
				a.Run(&Pass{
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					Pkg:      pkg.Pkg,
					Info:     pkg.Info,
					PkgPath:  pkg.Path,
					analyzer: a,
					report:   report,
				})
			}
		})
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: elapsed})
	}
	return out, timings
}

// testFileAnalyzers names the analyzers that also run over _test.go
// files: tests compare floats and iterate maps as readily as product
// code, and a nondeterministic assertion is a flaky test.
var testFileAnalyzers = map[string]bool{"mapiter": true, "floateq": true}

// Result is one Lint run.
type Result struct {
	Diagnostics []Diagnostic
	// Timings lists the module load, each analyzer, the test-file load
	// and the test-file pass, in run order.
	Timings []Timing
	// Packages counts the module's non-test packages.
	Packages int
}

// Lint checks the module rooted at root: it loads the non-test packages
// and runs the analyzers over them, then loads the _test.go files on the
// same Loader — so the module's packages are type-checked once — and runs
// the test-file analyzers among them over those. Diagnostics the
// test-file pass makes on non-test files repeat the first pass and are
// dropped. When analyzers is the whole suite, an allow token that
// suppressed nothing in either pass is reported as stale.
func Lint(root string, analyzers []*Analyzer) (*Result, error) {
	l := NewLoader()
	var pkgs []*Package
	var err error
	res := &Result{Timings: []Timing{{Analyzer: "load(module)", Elapsed: timed(func() {
		pkgs, err = l.LoadModule(root)
	})}}}
	if err != nil {
		return nil, err
	}
	res.Packages = len(pkgs)
	allow := make(allowSet)
	diags, timings := runModule(pkgs, analyzers, allow)
	res.Timings = append(res.Timings, timings...)

	var testAnalyzers []*Analyzer
	for _, a := range analyzers {
		if testFileAnalyzers[a.Name] {
			testAnalyzers = append(testAnalyzers, a)
		}
	}
	if len(testAnalyzers) > 0 {
		var testPkgs []*Package
		res.Timings = append(res.Timings, Timing{Analyzer: "load(tests)", Elapsed: timed(func() {
			testPkgs, err = l.LoadModuleTests(root)
		})})
		if err != nil {
			return nil, err
		}
		var testDiags []Diagnostic
		res.Timings = append(res.Timings, Timing{Analyzer: "tests(mapiter,floateq)", Elapsed: timed(func() {
			testDiags, _ = runModule(testPkgs, testAnalyzers, allow)
		})})
		for _, d := range testDiags {
			if strings.HasSuffix(d.Pos.Filename, "_test.go") {
				diags = append(diags, d)
			}
		}
	}
	if fullSuite(analyzers) {
		diags = append(diags, allow.stale()...)
	}
	slices.SortFunc(diags, compareDiagnostics)
	res.Diagnostics = diags
	return res, nil
}

// timed returns fn's wall time: the lint run's own cost, not simulation
// state.
func timed(fn func()) time.Duration {
	start := time.Now() //lint:allow nodeterminism tooling wall-time measurement, not simulation state
	fn()
	return time.Since(start) //lint:allow nodeterminism tooling wall-time measurement, not simulation state
}

// compareDiagnostics orders diagnostics by position, then analyzer and
// message, so every run prints them in one order.
func compareDiagnostics(a, b Diagnostic) int {
	if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pos.Column, b.Pos.Column); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Analyzer, b.Analyzer); c != 0 {
		return c
	}
	return cmp.Compare(a.Message, b.Message)
}
