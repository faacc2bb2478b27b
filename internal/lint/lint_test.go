package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Fixture files live under testdata/<analyzer>/ and are compiled one file
// at a time as standalone packages. Two comment directives drive the
// harness:
//
//   - a first-line "//lintpath:<import path>" sets the package's import
//     path, so fixtures can sit inside or outside the internal/ tree and
//     exercise the analyzers' scoping rules;
//   - a trailing `// want` (optionally `// want "substring"`) marks a line
//     where the analyzer under test must report, with the substring
//     required to appear in the message.
//
// Diagnostics on unmarked lines fail the test, so every unmarked
// construct in a fixture is a negative case.

var wantRe = regexp.MustCompile(`// want(?: "([^"]*)")?\s*$`)

const defaultFixturePath = "example.com/fixture"

func runFixtures(t *testing.T, analyzer *Analyzer) {
	t.Helper()
	runFixtureDir(t, filepath.Join("testdata", analyzer.Name), []*Analyzer{analyzer})
}

// runFixtureDir checks every fixture file in dir against the diagnostics
// the analyzers report together.
func runFixtureDir(t *testing.T, dir string, analyzers []*Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixtures: %v", err)
	}
	loader := NewLoader()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			path := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			importPath := defaultFixturePath
			lines := strings.Split(string(src), "\n")
			if rest, ok := strings.CutPrefix(lines[0], "//lintpath:"); ok {
				importPath = strings.TrimSpace(rest)
			}

			wants := make(map[int]string) // line -> required substring ("" = any)
			for i, line := range lines {
				if m := wantRe.FindStringSubmatch(line); m != nil {
					wants[i+1] = m[1]
				}
			}

			pkg, err := loader.LoadFile(path, importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := RunAnalyzers(pkg, analyzers)

			got := make(map[int][]string)
			for _, d := range diags {
				got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
			}
			for line, substr := range wants {
				msgs, ok := got[line]
				if !ok {
					t.Errorf("line %d: want a diagnostic, got none", line)
					continue
				}
				if substr != "" && !anyContains(msgs, substr) {
					t.Errorf("line %d: no diagnostic contains %q; got %v", line, substr, msgs)
				}
			}
			var unexpected []string
			for line, msgs := range got {
				if _, ok := wants[line]; !ok {
					for _, m := range msgs {
						unexpected = append(unexpected, fmt.Sprintf("line %d: %s", line, m))
					}
				}
			}
			sort.Strings(unexpected)
			for _, u := range unexpected {
				t.Errorf("unexpected diagnostic at %s", u)
			}
		})
	}
}

func anyContains(msgs []string, substr string) bool {
	for _, m := range msgs {
		if strings.Contains(m, substr) {
			return true
		}
	}
	return false
}

func TestNoDeterminism(t *testing.T) { runFixtures(t, NoDeterminism) }
func TestSimtimeMix(t *testing.T)    { runFixtures(t, SimtimeMix) }
func TestFloatEq(t *testing.T)       { runFixtures(t, FloatEq) }
func TestMapIter(t *testing.T)       { runFixtures(t, MapIter) }
func TestPanicGuard(t *testing.T)    { runFixtures(t, PanicGuard) }
func TestUnitsafe(t *testing.T)      { runFixtures(t, Unitsafe) }
func TestOwnedBuf(t *testing.T)      { runFixtures(t, OwnedBuf) }
func TestResetComplete(t *testing.T) { runFixtures(t, ResetComplete) }
func TestEffects(t *testing.T)       { runFixtures(t, Effects) }
func TestParSafe(t *testing.T)       { runFixtures(t, ParSafe) }

// TestHotPathAlloc runs effects over the testdata/hotpathalloc fixtures:
// certified noalloc roots against the compiler's escape facts, each
// heap site reported with the compiler's verdict.
func TestHotPathAlloc(t *testing.T) {
	runFixtureDir(t, filepath.Join("testdata", "hotpathalloc"), []*Analyzer{Effects})
}

// TestLoadModuleTests pins the _test.go loading contract: the in-package
// test files are type-checked augmented with the non-test sources (one
// references an unexported constant), the external _test package is
// checked against that augmented package (it calls a helper only a test
// file exports, through a package that imports m), and floateq's
// test-file mode flags only the fresh-arithmetic comparison. The contract
// holds on a fresh loader and on one that has already loaded the module,
// as a lint run does to check the module's packages once. ignored.go
// redeclares a constant of m.go under a //go:build ignore constraint, so
// the loads (and TestLintTwoPasses's) pass only if they read the files
// the go tool selects.
func TestLoadModuleTests(t *testing.T) {
	root := filepath.Join("testdata", "testmodule")
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			l := NewLoader()
			if warm {
				if _, err := l.LoadModule(root); err != nil {
					t.Fatalf("LoadModule: %v", err)
				}
			}
			pkgs, err := l.LoadModuleTests(root)
			if err != nil {
				t.Fatalf("LoadModuleTests: %v", err)
			}
			var paths []string
			for _, p := range pkgs {
				paths = append(paths, p.Path)
			}
			want := []string{"example.com/testmod", "example.com/testmod_test"}
			if fmt.Sprint(paths) != fmt.Sprint(want) {
				t.Fatalf("packages = %v, want %v", paths, want)
			}
			diags := RunModule(pkgs, []*Analyzer{FloatEq})
			if len(diags) != 1 {
				t.Fatalf("diagnostics = %v, want exactly one", diags)
			}
			d := diags[0]
			if !strings.HasSuffix(d.Pos.Filename, "m_test.go") || !strings.Contains(d.Message, "freshly-computed") {
				t.Errorf("diagnostic = %v, want freshly-computed arithmetic in m_test.go", d)
			}
		})
	}
}

// TestLintTwoPasses runs the whole suite over the loader fixture module
// the way autoe2e-lint does: the test-file pass reports its floateq
// finding, the allow usage it shares with the module pass shows the
// _test.go allow as stale, and the timings carry both loads.
func TestLintTwoPasses(t *testing.T) {
	res, err := Lint(filepath.Join("testdata", "testmodule"), All())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer))
	}
	want := []string{"m_test.go:8: allow", "m_test.go:11: floateq"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("diagnostics = %v, want %v", got, want)
	}
	var steps []string
	for _, tm := range res.Timings {
		steps = append(steps, tm.Analyzer)
	}
	if len(steps) < 2 || steps[0] != "load(module)" || !slices.Contains(steps, "load(tests)") {
		t.Errorf("timings = %v, want the module load first and a test-file load", steps)
	}
}

// TestStaleAllows runs the whole suite over the allowstale fixtures: an
// allow token that suppresses nothing is reported, one that suppresses a
// diagnostic is not, and an effects allow counts only where a root
// certifying the waived effect reaches the fact.
func TestStaleAllows(t *testing.T) { runFixtureDir(t, filepath.Join("testdata", "allowstale"), All()) }

// TestFixtureCoverage enforces the suite's own quality bar: every analyzer
// ships at least 3 positive fixture cases (want markers) and at least 2
// annotated negative cases (NEG markers on constructs that must NOT be
// flagged — scoping exemptions, sorted map iteration, allow annotations).
func TestFixtureCoverage(t *testing.T) {
	for _, a := range All() {
		dir := filepath.Join("testdata", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		positives, negatives := 0, 0
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(src), "\n") {
				if wantRe.MatchString(line) {
					positives++
				}
				if strings.Contains(line, "// NEG") {
					negatives++
				}
			}
		}
		if positives < 3 {
			t.Errorf("%s: %d positive fixture cases, want >= 3", a.Name, positives)
		}
		if negatives < 2 {
			t.Errorf("%s: %d negative fixture cases, want >= 2", a.Name, negatives)
		}
	}
}

// TestAllowSuppression checks the escape hatch end to end on an in-memory
// view of the fixture set: a //lint:allow on the same line or the line
// above must drop the diagnostic, and unrelated analyzers must be
// unaffected.
func TestAllowSuppression(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadFile(filepath.Join("testdata", "nodeterminism", "allow.go"),
		"github.com/autoe2e/autoe2e/internal/fixtureallow")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pkg, []*Analyzer{NoDeterminism}); len(diags) != 0 {
		t.Errorf("allow.go: want every diagnostic suppressed, got %v", diags)
	}
}

// TestAllowHygiene checks the driver-level vetting of //lint:allow
// annotations: a bare allow and an unknown analyzer name are rejected even
// when no analyzer runs, and a justified allow with a known name is not.
func TestAllowHygiene(t *testing.T) {
	loader := NewLoader()
	bad, err := loader.LoadFile(filepath.Join("testdata", "allowhygiene", "bad.go"), defaultFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(bad, nil)
	if len(diags) != 2 {
		t.Fatalf("bad.go: want 2 hygiene diagnostics, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "without a justification") || diags[0].Analyzer != "allow" {
		t.Errorf("bad.go first diagnostic: got %v", diags[0])
	}
	if !strings.Contains(diags[1].Message, `unknown analyzer "nodetreminism"`) {
		t.Errorf("bad.go second diagnostic: got %v", diags[1])
	}

	good, err := loader.LoadFile(filepath.Join("testdata", "allowhygiene", "good.go"), defaultFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(good, []*Analyzer{FloatEq}); len(diags) != 0 {
		t.Errorf("good.go: want no diagnostics, got %v", diags)
	}
}

// Pinned repo-wide annotation counts. Every //lint:allow, //lint:sticky,
// and //lint:hookpoint in linted (non-test, non-testdata) sources is an
// audited exception to an invariant, and every //lint:certify is a proven
// claim; a change must show up in review as a diff to these numbers, with
// its justification next to it.
//
// //lint:noalloc is pinned at zero: no analyzer reads the marker, so it
// would prove nothing. A function that must not allocate is either inside
// the reach of a //lint:certify noalloc root or becomes one.
const (
	repoAllowCount     = 42 // -7: the negative-delay panic allow left with simtime.Engine.After; the two nil-callback allows of ScheduleCall/ScheduleCallPre are one, in enqueue; System.OnECU's first-use cache build is gone (runs validate the System), with its allow, the three call-site allows it needed and buildOnECU's
	repoStickyCount    = 21 // +1: Session.res, the published result view, which the Session copy leaves to Resume
	repoNoallocCount   = 0  // -27: 19 sat inside a noalloc root's reach; the rest became certify roots
	repoCertifyCount   = 23 // -1: simtime.Engine.After, gone with closure scheduling
	repoHookpointCount = 12 // -5: the six callback sites of Engine.Run/RunBefore/Step are one, in Engine.fire
)

func TestAnnotationInventory(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var allows, stickies, noallocs, certifies, hookpoints []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		// Parse the file so only real comments count: the analyzers' own
		// diagnostic strings mention the markers inside string literals,
		// and doc-comment prose continuation lines retain a leading "//".
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				at := fmt.Sprintf("%s:%d", rel, fset.Position(c.Pos()).Line)
				if strings.HasPrefix(text, "lint:allow") {
					allows = append(allows, at)
				}
				if strings.HasPrefix(text, "lint:sticky") {
					stickies = append(stickies, at)
				}
				if strings.HasPrefix(text, "lint:noalloc") {
					noallocs = append(noallocs, at)
				}
				if strings.HasPrefix(text, "lint:certify") {
					certifies = append(certifies, at)
				}
				if strings.HasPrefix(text, "lint:hookpoint") {
					hookpoints = append(hookpoints, at)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(allows) != repoAllowCount {
		t.Errorf("repo-wide //lint:allow count = %d, pinned %d; update repoAllowCount if the new exception is justified:\n  %s",
			len(allows), repoAllowCount, strings.Join(allows, "\n  "))
	}
	if len(stickies) != repoStickyCount {
		t.Errorf("repo-wide //lint:sticky count = %d, pinned %d; update repoStickyCount if the new warm state is justified:\n  %s",
			len(stickies), repoStickyCount, strings.Join(stickies, "\n  "))
	}
	if len(noallocs) != repoNoallocCount {
		t.Errorf("repo-wide //lint:noalloc count = %d, pinned %d; nothing reads the marker, so extend or add a //lint:certify noalloc root instead:\n  %s",
			len(noallocs), repoNoallocCount, strings.Join(noallocs, "\n  "))
	}
	if len(certifies) != repoCertifyCount {
		t.Errorf("repo-wide //lint:certify count = %d, pinned %d; a new root widens the proven surface and belongs in DESIGN.md's root list:\n  %s",
			len(certifies), repoCertifyCount, strings.Join(certifies, "\n  "))
	}
	if len(hookpoints) != repoHookpointCount {
		t.Errorf("repo-wide //lint:hookpoint count = %d, pinned %d; every hookpoint is trust-surface — justify the new boundary:\n  %s",
			len(hookpoints), repoHookpointCount, strings.Join(hookpoints, "\n  "))
	}
}

func TestByName(t *testing.T) {
	got, err := ByName([]string{"floateq", "mapiter"})
	if err != nil || len(got) != 2 || got[0] != FloatEq || got[1] != MapIter {
		t.Errorf("ByName = %v, %v", got, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Error("ByName(nope): want error")
	}
}
