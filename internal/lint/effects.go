package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"github.com/autoe2e/autoe2e/internal/lint/callgraph"
)

// Effects verifies entry-point effect contracts transitively over the
// whole-module call graph. A function annotated
//
//	//lint:certify noalloc,nopanic,deterministic [reason]
//
// in its doc comment is a certification root: the named effects must be
// absent from the function AND everything it can reach. The effect
// lattice is
//
//	noalloc       — no heap allocation (compiler escape analysis)
//	nopanic       — no explicit panic
//	deterministic — no wall-clock time, global math/rand, or env reads
//	noblock       — no lock acquisition, channel op, or select
//	nospawn       — no goroutine creation
//
// Certification covers the steady state of a valid run: facts and call
// edges inside failure-path blocks (a block whose final statement
// returns a non-nil error) are excluded, as are lines carrying an audited
// //lint:allow effects exemption — a deliberate amortized allocation, an
// assertion panic on a programmer error. Such an allow counts as used only
// when the fact it drops sits in a function a root certifying that effect
// reaches; the driver reports any other as stale.
//
// Heap allocations are the compiler's own verdict: the module is built
// once with -gcflags=-m and every "escapes to heap" / "moved to heap"
// site is attributed to the innermost enclosing function, so a certified
// noalloc root proves its whole reach allocation-free, frame by frame.
// The compiler reports an allocation inlined from a callee at the
// caller's call line, so its exemption belongs on that line as well.
//
// Dynamic dispatch that is a deliberate contract boundary — an engine
// invoking registered callbacks, a config hook — is declared with
//
//	//lint:hookpoint <reason>
//
// on the call line (or the line above): edges from that site are cut
// and each callback class is certified at its own root. Every other
// unresolved call edge reachable from a certification root is a hard
// error unless waived with //lint:allow effects <reason>.
var Effects = &Analyzer{
	Name:      "effects",
	Doc:       "//lint:certify contracts (noalloc,nopanic,deterministic,noblock,nospawn) must hold transitively",
	RunModule: runEffects,
}

const (
	certifyPrefix   = "lint:certify"
	hookpointPrefix = "lint:hookpoint"
)

// effectNames maps certify-list names onto effect bits, in report order.
var effectNames = []struct {
	name string
	bit  callgraph.Effect
}{
	{"noalloc", callgraph.Allocates},
	{"nopanic", callgraph.Panics},
	{"deterministic", callgraph.WallClock},
	{"noblock", callgraph.Blocks},
	{"nospawn", callgraph.Spawns},
}

func effectByName(name string) (callgraph.Effect, bool) {
	for _, e := range effectNames {
		if e.name == name {
			return e.bit, true
		}
	}
	return 0, false
}

// contractNames renders an effect set using the certify vocabulary.
func contractNames(e callgraph.Effect) string {
	var parts []string
	for _, en := range effectNames {
		if e&en.bit != 0 {
			parts = append(parts, en.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func runEffects(mp *ModulePass) {
	ea := newEffectsAnalysis(mp)
	if ea == nil {
		return
	}
	ea.check()
}

// certRoot is one parsed //lint:certify contract.
type certRoot struct {
	node *callgraph.Node
	want callgraph.Effect
	pos  token.Pos
}

// hookpoint is one declared dispatch boundary.
type hookpoint struct {
	pos    token.Position
	reason string
	used   bool
}

type effectsAnalysis struct {
	mp    *ModulePass
	fset  *token.FileSet
	graph *callgraph.Graph
	prop  *callgraph.Propagation
	roots []certRoot
	// hooks indexes hookpoints by filename and line.
	hooks map[string]map[int]*hookpoint
	// facts holds the per-node intrinsic facts fed to propagation.
	facts map[*callgraph.Node][]callgraph.Fact
	// tokenFiles maps file names back to token files, for re-attributing
	// compiler positions.
	tokenFiles map[string]*token.File
	// absToName maps absolute paths back to the loader's file names
	// (compiler diagnostics are absolute; fset positions may not be).
	absToName map[string]string
	// waived records the facts //lint:allow effects tokens dropped, to
	// tell a used allow from a stale one once reach is known.
	waived map[waiver]bool
}

// waiver is one effect an allow token dropped inside a node.
type waiver struct {
	tok  *allowToken
	node *callgraph.Node
	eff  callgraph.Effect
}

// newEffectsAnalysis parses the annotations, derives the intrinsic
// facts, and runs the propagation. Returns nil if escape analysis is
// unavailable (already reported).
func newEffectsAnalysis(mp *ModulePass) *effectsAnalysis {
	ea := &effectsAnalysis{
		mp:         mp,
		fset:       mp.Fset(),
		graph:      mp.Graph(),
		hooks:      make(map[string]map[int]*hookpoint),
		facts:      make(map[*callgraph.Node][]callgraph.Fact),
		tokenFiles: make(map[string]*token.File),
		absToName:  make(map[string]string),
		waived:     make(map[waiver]bool),
	}
	for _, pkg := range mp.Packages {
		for _, f := range pkg.Files {
			if tf := ea.fset.File(f.Pos()); tf != nil {
				ea.tokenFiles[tf.Name()] = tf
				if abs, err := filepath.Abs(tf.Name()); err == nil {
					ea.absToName[abs] = tf.Name()
				}
			}
		}
	}
	ea.parseCertifications()
	ea.parseHookpoints()
	if !ea.collectFacts() {
		return nil
	}
	ea.prop = ea.graph.Propagate(callgraph.PropagateConfig{
		Facts:      func(n *callgraph.Node) []callgraph.Fact { return ea.facts[n] },
		External:   ea.externalEffect,
		Cut:        ea.cutEdge,
		MaskPanics: nodeMasksPanics,
	})
	return ea
}

// parseCertifications finds every //lint:certify marker, polices stray
// and malformed ones, and records the roots.
func (ea *effectsAnalysis) parseCertifications() {
	for _, pkg := range ea.mp.Packages {
		consumed := make(map[*ast.Comment]bool)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Doc == nil {
					continue
				}
				for _, c := range d.Doc.List {
					list, isMarker := markerList(c, certifyPrefix)
					if !isMarker {
						continue
					}
					consumed[c] = true
					if d.Body == nil {
						ea.mp.Reportf(c.Pos(), "//lint:certify on a bodyless declaration certifies nothing")
						continue
					}
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					node := ea.graph.NodeOf(fn)
					if node == nil {
						continue
					}
					want, bad := parseEffectList(list)
					if bad != "" {
						ea.mp.Reportf(c.Pos(), "//lint:certify names unknown effect %q (known: noalloc, nopanic, deterministic, noblock, nospawn)", bad)
					}
					if want == 0 {
						ea.mp.Reportf(c.Pos(), "//lint:certify without an effect list certifies nothing")
						continue
					}
					ea.roots = append(ea.roots, certRoot{node: node, want: want, pos: c.Pos()})
				}
			}
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if _, isMarker := markerList(c, certifyPrefix); isMarker && !consumed[c] {
						ea.mp.Reportf(c.Pos(), "stray //lint:certify: the marker must sit in a function's doc comment")
					}
				}
			}
		}
	}
	sort.Slice(ea.roots, func(i, j int) bool { return ea.roots[i].node.Name() < ea.roots[j].node.Name() })
}

// markerText strips the leading "//" and anything after a nested "//"
// (which starts a separate trailing comment, e.g. a fixture marker).
func markerText(c *ast.Comment) string {
	text := strings.TrimPrefix(c.Text, "//")
	if i := strings.Index(text, "//"); i >= 0 {
		text = text[:i]
	}
	return strings.TrimSpace(text)
}

// markerList matches "//lint:<prefix> <rest>" and returns the first
// whitespace-delimited token after the prefix.
func markerList(c *ast.Comment, prefix string) (string, bool) {
	text := markerText(c)
	if text != prefix && !strings.HasPrefix(text, prefix+" ") {
		return "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// markerReason returns everything after the first token.
func markerReason(c *ast.Comment, prefix string) string {
	text := markerText(c)
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return strings.TrimSpace(rest[i+1:])
	}
	return rest // the whole rest is the reason (hookpoints have no list)
}

func parseEffectList(list string) (callgraph.Effect, string) {
	var want callgraph.Effect
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		bit, ok := effectByName(name)
		if !ok {
			return want, name
		}
		want |= bit
	}
	return want, ""
}

// parseHookpoints records every //lint:hookpoint boundary and polices
// missing reasons. Usage (does the line actually cut an edge?) is
// checked after propagation.
func (ea *effectsAnalysis) parseHookpoints() {
	for _, pkg := range ea.mp.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := markerText(c)
					if text != hookpointPrefix && !strings.HasPrefix(text, hookpointPrefix+" ") {
						continue
					}
					reason := markerReason(c, hookpointPrefix)
					pos := ea.fset.Position(c.Pos())
					if reason == "" {
						ea.mp.ReportAt(pos, "//lint:hookpoint without a reason; state what contract bounds the dispatch")
					}
					lines := ea.hooks[pos.Filename]
					if lines == nil {
						lines = make(map[int]*hookpoint)
						ea.hooks[pos.Filename] = lines
					}
					lines[pos.Line] = &hookpoint{pos: pos, reason: reason}
				}
			}
		}
	}
}

// hookpointAt returns the hookpoint covering a call position (its line
// or the line above), marking it used.
func (ea *effectsAnalysis) hookpointAt(pos token.Pos) *hookpoint {
	p := ea.fset.Position(pos)
	lines := ea.hooks[p.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		if h := lines[line]; h != nil {
			h.used = true
			return h
		}
	}
	return nil
}

// cutEdge is the propagation boundary rule: declared hookpoints.
// (Failure-path edges are cut by the propagation itself.)
func (ea *effectsAnalysis) cutEdge(e *callgraph.Edge) bool {
	return ea.hookpointAt(e.Pos) != nil
}

// collectFacts derives every node's intrinsic facts: compiler-reported
// heap escapes (minus //lint:allow effects lines and failure spans) and
// the syntactic panic/block/spawn sources of the node's own frame.
// Returns false if escape analysis failed (reported).
func (ea *effectsAnalysis) collectFacts() bool {
	// Node spans for attributing compiler positions: a site belongs to
	// the innermost function whose source contains it. A function
	// literal's own position is where the closure is built, so "func
	// literal escapes to heap" belongs to the enclosing function.
	type nodeSpan struct {
		from, to token.Pos
		node     *callgraph.Node
	}
	spans := make(map[string][]nodeSpan)
	for _, n := range ea.graph.Nodes {
		if n.Body() == nil {
			continue
		}
		span := nodeSpan{node: n}
		if n.Decl != nil {
			span.from, span.to = n.Decl.Pos(), n.Decl.End()
		} else {
			span.from, span.to = n.Lit.Pos()+1, n.Lit.End()
		}
		file := ea.fset.Position(span.from).Filename
		spans[file] = append(spans[file], span)
	}
	innermost := func(file string, pos token.Pos) *callgraph.Node {
		var best *nodeSpan
		for i, s := range spans[file] {
			if pos >= s.from && pos < s.to && (best == nil || s.to-s.from < best.to-best.from) {
				best = &spans[file][i]
			}
		}
		if best == nil {
			return nil
		}
		return best.node
	}

	// Compiler escape facts, one escape run per build target.
	for _, target := range ea.escapeTargets() {
		analysis := cachedEscapeRun(target.key, target.dir, target.pattern)
		if analysis.err != nil {
			ea.mp.ReportAt(token.Position{Filename: target.dir, Line: 1, Column: 1},
				"escape analysis unavailable: %v", analysis.err)
			return false
		}
		for _, site := range analysis.sites {
			// Compiler paths are absolute; translate back to the loader's
			// file names before hitting any fset-keyed index.
			fname, loaded := ea.absToName[site.file]
			if !loaded {
				continue
			}
			if ea.graph.FailureLine(fname, site.line) {
				continue
			}
			pos := ea.posFor(fname, site.line, site.col)
			node := innermost(fname, pos)
			if node == nil {
				continue // package-level initializer or unloaded file
			}
			if ea.waive(ea.fset.Position(pos), node, callgraph.Allocates) {
				continue
			}
			ea.facts[node] = append(ea.facts[node], callgraph.Fact{
				Effect: callgraph.Allocates,
				Pos:    pos,
				What:   "heap allocation (" + site.msg + ")",
			})
		}
	}

	// Syntactic facts of each node's own frame.
	for _, n := range ea.graph.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		node, pkg := n, n.Pkg
		inspectFrame(body, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
					if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
						ea.addFact(node, v.Pos(), callgraph.Panics, "explicit panic")
					}
				}
			case *ast.SendStmt:
				ea.addFact(node, v.Pos(), callgraph.Blocks, "channel send")
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					ea.addFact(node, v.Pos(), callgraph.Blocks, "channel receive")
				}
			case *ast.SelectStmt:
				ea.addFact(node, v.Pos(), callgraph.Blocks, "select")
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(v.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						ea.addFact(node, v.Pos(), callgraph.Blocks, "range over channel")
					}
				}
			case *ast.GoStmt:
				ea.addFact(node, v.Pos(), callgraph.Spawns, "go statement")
			}
			return true
		})
	}
	return true
}

// addFact records one syntactic fact unless it sits in a failure span
// or on a //lint:allow effects line.
func (ea *effectsAnalysis) addFact(n *callgraph.Node, pos token.Pos, eff callgraph.Effect, what string) {
	if ea.graph.FailurePos(pos) || ea.waive(ea.fset.Position(pos), n, eff) {
		return
	}
	ea.facts[n] = append(ea.facts[n], callgraph.Fact{Effect: eff, Pos: pos, What: what})
}

// waive reports whether a //lint:allow effects token covers pos and, if
// so, records the effect it drops inside n.
func (ea *effectsAnalysis) waive(pos token.Position, n *callgraph.Node, eff callgraph.Effect) bool {
	tok := ea.mp.allowAt(pos)
	if tok != nil {
		ea.waived[waiver{tok: tok, node: n, eff: eff}] = true
	}
	return tok != nil
}

// escapeTarget is one `go build -gcflags=-m` invocation.
type escapeTarget struct {
	key, dir, pattern string
}

// escapeTargets returns the builds covering the loaded packages: one
// whole-module build, or one single-file build per fixture under
// testdata.
func (ea *effectsAnalysis) escapeTargets() []escapeTarget {
	var out []escapeTarget
	seen := make(map[string]bool)
	for _, pkg := range ea.mp.Packages {
		var t escapeTarget
		if underTestdata(pkg.Dir) {
			fname := ea.fset.Position(pkg.Files[0].Pos()).Filename
			t = escapeTarget{key: "file:" + fname, dir: pkg.Dir, pattern: fname[strings.LastIndex(fname, "/")+1:]}
		} else {
			root, err := FindModuleRoot(pkg.Dir)
			if err != nil {
				continue
			}
			t = escapeTarget{key: "module:" + root, dir: root, pattern: "./..."}
		}
		if !seen[t.key] {
			seen[t.key] = true
			out = append(out, t)
		}
	}
	return out
}

// posFor reconstructs a token.Pos for a compiler-reported
// file:line:col (columns count bytes, as token positions do).
func (ea *effectsAnalysis) posFor(file string, line, col int) token.Pos {
	tf := ea.tokenFiles[file]
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	return tf.LineStart(line) + token.Pos(col-1)
}

// inspectFrame walks one function's own frame: nested function literals
// are separate graph nodes and are skipped.
func inspectFrame(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != root {
			return false
		}
		return fn(n)
	})
}

// nodeMasksPanics reports whether the node's own frame defers a
// function literal that calls recover — the canonical panic barrier.
func nodeMasksPanics(n *callgraph.Node) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	masks := false
	inspectFrame(body, func(x ast.Node) bool {
		d, ok := x.(*ast.DeferStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(y ast.Node) bool {
			if call, ok := y.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
					masks = true
				}
			}
			return true
		})
		return true
	})
	return masks
}

// externalExact models individual external symbols, keyed by the
// graph's externalKey format.
var externalExact = map[string]callgraph.Effect{
	"fmt.Errorf":  callgraph.Allocates,
	"errors.New":  callgraph.Allocates,
	"errors.Join": callgraph.Allocates,
	"errors.Is":   0,
	"errors.As":   callgraph.Allocates,

	"sync.Mutex.Lock":      callgraph.Blocks,
	"sync.Mutex.TryLock":   0,
	"sync.Mutex.Unlock":    0,
	"sync.RWMutex.Lock":    callgraph.Blocks,
	"sync.RWMutex.RLock":   callgraph.Blocks,
	"sync.RWMutex.Unlock":  0,
	"sync.RWMutex.RUnlock": 0,
	"sync.WaitGroup.Add":   0,
	"sync.WaitGroup.Done":  0,
	"sync.WaitGroup.Wait":  callgraph.Blocks,
	"sync.Cond.Wait":       callgraph.Blocks,
	"sync.Cond.Signal":     0,
	"sync.Cond.Broadcast":  0,
	"sync.Once.Do":         callgraph.Blocks,

	"os.Getenv":    callgraph.WallClock,
	"os.LookupEnv": callgraph.WallClock,

	// Append-style encoders only grow their destination slice, which is
	// what the builtin append does too: no effect once the caller's
	// buffer has reached its working size (the colfmt and serve
	// steady-state alloc gates pin that at run time). Uvarint reports
	// malformed input through a non-positive length; PutUvarint writes
	// into a caller-sized buffer and panics only when it is short.
	"encoding/binary.AppendUvarint": 0,
	"encoding/binary.Uvarint":       0,
	"encoding/binary.PutUvarint":    callgraph.Panics,
	"strconv.AppendFloat":           0,
	"strconv.AppendInt":             0,
	"strconv.AppendUint":            0,
	"strconv.AppendQuote":           0,

	// Methods on an explicitly-seeded *rand.Rand are deterministic; only
	// the package-level functions draw from the global source (see the
	// math/rand package default). NormFloat64/Float64 never allocate;
	// Intn keeps Panics for its n <= 0 guard.
	"math/rand.Rand.Float64":     0,
	"math/rand.Rand.NormFloat64": 0,
	"math/rand.Rand.Int63":       0,
	"math/rand.Rand.Uint64":      0,
	"math/rand.Rand.Intn":        callgraph.Panics,
	"math/rand.New":              callgraph.Allocates,
	"math/rand.NewSource":        callgraph.Allocates,
}

// externalPkgDefault models whole external packages when no exact entry
// matches. Absent packages default to Allocates|Panics — conservative,
// but still "resolved": the certification fails loudly rather than
// trusting unknown code.
var externalPkgDefault = map[string]callgraph.Effect{
	"math":         0,
	"math/bits":    0,
	"sync/atomic":  0,
	"unicode":      0,
	"unicode/utf8": 0,
	"cmp":          0,
	"slices":       0, // slices.Sort family sorts in place; Clone/Insert are caught by noalloc call sites in module code
	// heap's own frame only re-slices and swaps; the Interface methods it
	// invokes are module code reached through bindExternalArgs edges.
	"container/heap": 0,

	"errors":  callgraph.Allocates,
	"fmt":     callgraph.Allocates,
	"strconv": callgraph.Allocates,
	"strings": callgraph.Allocates,
	"bytes":   callgraph.Allocates,
	"sort":    callgraph.Allocates,

	"sync": callgraph.Blocks,

	"math/rand":    callgraph.WallClock | callgraph.Allocates,
	"math/rand/v2": callgraph.WallClock | callgraph.Allocates,
}

// externalEffect models one external callee edge, honoring
// //lint:allow effects lines exactly as intrinsic facts do.
func (ea *effectsAnalysis) externalEffect(e *callgraph.Edge) callgraph.Effect {
	eff, known := externalExact[e.External]
	if !known {
		eff, known = externalPkgEffect(e.ExternalFn)
	}
	if !known {
		eff = callgraph.Allocates | callgraph.Panics
	}
	if eff != 0 && ea.waive(ea.fset.Position(e.Pos), e.Caller, eff) {
		return 0
	}
	return eff
}

func externalPkgEffect(fn *types.Func) (callgraph.Effect, bool) {
	if fn == nil || fn.Pkg() == nil {
		return 0, false
	}
	path := fn.Pkg().Path()
	if path == "time" {
		if wallClockFuncs[fn.Name()] {
			return callgraph.WallClock, true
		}
		return 0, true
	}
	eff, ok := externalPkgDefault[path]
	return eff, ok
}

// check reports contract violations, unresolved edges on certified
// paths, and unused hookpoints.
func (ea *effectsAnalysis) check() {
	for _, root := range ea.roots {
		got := ea.prop.EffectsOf(root.node) & root.want
		for _, en := range effectNames {
			if got&en.bit == 0 {
				continue
			}
			expl := ea.prop.Explain(root.node, en.bit)
			ea.mp.Reportf(root.pos, "%s is certified %s but %s reaches it: %s",
				root.node.Name(), contractNames(root.want&en.bit), en.bit, ea.explainString(expl))
		}
	}

	// Unresolved dynamic calls on certified paths are hard errors. An
	// allow earns its keep where a root certifying the effect it waives
	// reaches the fact.
	reported := make(map[token.Pos]bool)
	for _, root := range ea.roots {
		reach := ea.prop.Reachable([]*callgraph.Node{root.node})
		for w := range ea.waived {
			if reach[w.node] && w.eff&root.want != 0 {
				w.tok.used = true
			}
		}
		for _, u := range ea.unresolvedIn(reach) {
			if !reported[u.Pos] {
				reported[u.Pos] = true
				ea.mp.Reportf(u.Pos, "unresolved %s in %s, reachable from certified %s; resolve it, declare a //lint:hookpoint boundary, or waive with //lint:allow effects",
					u.Reason, u.Caller.Name(), root.node.Name())
			}
		}
	}

	// A hookpoint that cuts nothing is stale.
	for _, h := range ea.sortedHooks() {
		if !h.used {
			ea.mp.ReportAt(h.pos, "//lint:hookpoint matches no call edge; move it to the dispatch line or remove it")
		}
	}
}

// unresolvedIn returns the unresolved dynamic calls inside reach that no
// failure path or hookpoint excuses, one per call position.
func (ea *effectsAnalysis) unresolvedIn(reach map[*callgraph.Node]bool) []callgraph.Unresolved {
	var out []callgraph.Unresolved
	seen := make(map[token.Pos]bool)
	for _, u := range ea.graph.Unresolved {
		if u.FailurePath || !reach[u.Caller] || seen[u.Pos] || ea.hookpointAt(u.Pos) != nil {
			continue
		}
		seen[u.Pos] = true
		out = append(out, u)
	}
	return out
}

// sortedHooks returns every hookpoint in file and line order.
func (ea *effectsAnalysis) sortedHooks() []*hookpoint {
	var hooks []*hookpoint
	for _, lines := range ea.hooks {
		for _, h := range lines {
			hooks = append(hooks, h)
		}
	}
	sort.Slice(hooks, func(i, j int) bool {
		if hooks[i].pos.Filename != hooks[j].pos.Filename {
			return hooks[i].pos.Filename < hooks[j].pos.Filename
		}
		return hooks[i].pos.Line < hooks[j].pos.Line
	})
	return hooks
}

// explainString renders an explanation as a call chain ending at the
// effect source.
func (ea *effectsAnalysis) explainString(expl *callgraph.Explanation) string {
	if expl == nil {
		return "(source not traced)"
	}
	var b strings.Builder
	for i, step := range expl.Path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(step.Node.Name())
		if step.Via != "" {
			b.WriteString(" [" + step.Via + "]")
		}
	}
	b.WriteString(": ")
	b.WriteString(expl.What)
	if expl.Pos.IsValid() {
		p := ea.fset.Position(expl.Pos)
		fmt.Fprintf(&b, " at %s:%d", p.Filename, p.Line)
	}
	return b.String()
}

// EffectsReport runs the effects analysis over the packages and renders
// the per-entry-point certification summary for -effects-report. The
// returned diagnostics are whatever the analysis itself reported
// (violations, unresolved edges, annotation hygiene), post-allow
// filtering.
func EffectsReport(pkgs []*Package) (string, []Diagnostic, error) {
	allow := make(allowSet)
	for _, pkg := range pkgs {
		collectAllows(allow, pkg.Fset, pkg.Files) // hygiene is the lint run's job
	}
	var diags []Diagnostic
	mp := &ModulePass{
		Packages: pkgs,
		analyzer: Effects,
		allow:    allow,
		shared:   &moduleShared{},
		report: func(d Diagnostic) {
			if !allow.allows(d.Pos, d.Analyzer) {
				diags = append(diags, d)
			}
		},
	}
	ea := newEffectsAnalysis(mp)
	if ea == nil {
		return "", diags, fmt.Errorf("lint: effects analysis unavailable")
	}
	ea.check()

	var b strings.Builder
	b.WriteString("effects certification report\n")
	if len(ea.roots) == 0 {
		b.WriteString("  (no //lint:certify entry points)\n")
	}
	for _, root := range ea.roots {
		got := ea.prop.EffectsOf(root.node)
		verdict := "CERTIFIED"
		if got&root.want != 0 {
			verdict = "VIOLATED (" + contractNames(got&root.want) + ")"
		}
		fmt.Fprintf(&b, "  %-40s certify %-32s %s\n", root.node.Name(), contractNames(root.want), verdict)

		reach := ea.prop.Reachable([]*callgraph.Node{root.node})
		residual := got &^ root.want
		fmt.Fprintf(&b, "  %-40s reaches %d functions, %d unresolved edges; residual effects: %s\n",
			"", len(reach), len(ea.unresolvedIn(reach)), residual.String())
	}

	if hooks := ea.sortedHooks(); len(hooks) > 0 {
		b.WriteString("hookpoint boundaries\n")
		for _, h := range hooks {
			fmt.Fprintf(&b, "  %s:%d: %s\n", h.pos.Filename, h.pos.Line, h.reason)
		}
	}
	return b.String(), diags, nil
}
