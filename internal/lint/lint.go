// Package lint implements AutoE2E's custom invariant-checking analyzers.
//
// The reproduction rests on invariants the Go compiler cannot see: every
// simulation run must be bit-for-bit deterministic (EXPERIMENTS.md replays
// figures from seeds), all simulated durations must flow through
// simtime.Duration rather than wall-clock time.Duration, and the hot path
// of the event loop must surface failures as errors rather than panics.
// Each analyzer in this package enforces one such invariant mechanically,
// so that the invariants survive refactors, new contributors, and the
// ROADMAP's move toward sharded/parallel execution.
//
// The analyzers are built directly on the standard go/ast and go/types
// packages with a small self-contained driver (see Loader and
// cmd/autoe2e-lint), keeping the module free of external dependencies.
//
// Deliberate exceptions are annotated in the source with a comment of the
// form
//
//	//lint:allow <analyzer> [reason]
//
// placed on the offending line or on the line directly above it (the
// same-line annotation is matched first). Multiple analyzers may be listed
// separated by commas. A run of the whole suite reports every listed
// analyzer name that suppressed nothing, so an exception cannot outlive
// the code it excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker. Exactly one of Run and RunModule
// is set: Run inspects one package at a time, RunModule sees the whole
// module at once (the interprocedural analyzers).
type Analyzer struct {
	// Name is the identifier used in reports and //lint:allow annotations.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the package and reports violations via pass.Reportf.
	Run func(*Pass)
	// RunModule inspects every package of the module in one pass.
	RunModule func(*ModulePass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		SimtimeMix,
		FloatEq,
		MapIter,
		PanicGuard,
		Unitsafe,
		OwnedBuf,
		ResetComplete,
		Effects,
		ParSafe,
	}
}

// ByName returns the named analyzers, or an error naming the first unknown.
func ByName(names []string) ([]*Analyzer, error) {
	index := make(map[string]*Analyzer)
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to the package and returns the
// surviving diagnostics, sorted by position. Diagnostics suppressed by a
// //lint:allow annotation (same line or the line directly above) are
// dropped. Module-scoped analyzers see the single package as a
// one-package module — the fixture-testing path.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunModule([]*Package{pkg}, analyzers)
}

// fullSuite reports whether analyzers is the whole suite, the condition
// under which an allow that suppressed nothing is known to be stale.
func fullSuite(analyzers []*Analyzer) bool {
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, a := range All() {
		if !ran[a.Name] {
			return false
		}
	}
	return true
}

const allowPrefix = "lint:allow"

// allowToken is one analyzer name of one //lint:allow annotation, and
// whether it has suppressed anything yet.
type allowToken struct {
	pos  token.Position
	name string
	used bool
}

// allowSet indexes allow tokens by file and line.
type allowSet map[string]fileAllows

// fileAllows indexes one file's allow tokens by line.
type fileAllows map[int][]*allowToken

// parseAllow splits a //lint:allow comment into its comma-separated
// analyzer names and the free-form reason after them.
func parseAllow(c *ast.Comment) (names []string, reason string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	list := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		list, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, reason, true
}

// collectAllows merges one package's annotations into the set and vets
// each: it must name only known analyzers (or "all") and carry a
// non-empty justification. A bare allow silently widens the escape hatch,
// so the driver rejects it — these diagnostics bypass allow filtering (an
// allow cannot vouch for itself). A token already present (the test-file
// pass re-reads the package's non-test files) keeps its usage.
func collectAllows(set allowSet, fset *token.FileSet, files []*ast.File) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllow(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if reason == "" {
					out = append(out, Diagnostic{
						Pos:      pos,
						Analyzer: "allow",
						Message:  "bare //lint:allow without a justification; state why the exception is safe",
					})
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = make(fileAllows)
					set[pos.Filename] = lines
				}
				for _, n := range names {
					switch {
					case !known[n]:
						out = append(out, Diagnostic{
							Pos:      pos,
							Analyzer: "allow",
							Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", n),
						})
					case lines.at(pos.Line, n) == nil:
						lines[pos.Line] = append(lines[pos.Line], &allowToken{pos: pos, name: n})
					}
				}
			}
		}
	}
	return out
}

// at returns the token on line naming exactly name.
func (lines fileAllows) at(line int, name string) *allowToken {
	for _, t := range lines[line] {
		if t.name == name {
			return t
		}
	}
	return nil
}

// match returns the token that covers a diagnostic of the named analyzer
// at pos, without marking it used: one on the diagnostic's own line
// first, else one on the line directly above.
func (s allowSet) match(pos token.Position, analyzer string) *allowToken {
	lines := s[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if t := lines.at(line, analyzer); t != nil {
			return t
		}
		if t := lines.at(line, "all"); t != nil {
			return t
		}
	}
	return nil
}

// allows reports whether an annotation covers the diagnostic, marking
// the covering token used.
func (s allowSet) allows(pos token.Position, analyzer string) bool {
	t := s.match(pos, analyzer)
	if t != nil {
		t.used = true
	}
	return t != nil
}

// stale reports every token that suppressed nothing. Like hygiene
// diagnostics, these bypass allow filtering.
func (s allowSet) stale() []Diagnostic {
	var out []Diagnostic
	for _, lines := range s {
		for _, toks := range lines {
			for _, t := range toks {
				if !t.used {
					out = append(out, Diagnostic{
						Pos:      t.pos,
						Analyzer: "allow",
						Message:  fmt.Sprintf("//lint:allow %s suppresses nothing; remove it", t.name),
					})
				}
			}
		}
	}
	slices.SortFunc(out, compareDiagnostics)
	return out
}
