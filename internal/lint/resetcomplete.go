package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ResetComplete enforces the pooling contract on every reused type: a field
// added to a pooled struct must either be restored by the type's reset
// method or be explicitly declared warm state. Without this check, adding a
// field to a Session-reused struct silently leaks state from one run into
// the next — the exact bug class the zero-allocation runtime invites.
//
// A struct is pooled if it appears in the built-in registry below (the
// types core.Session reuses across runs) or if its declaration carries a
//
//	//lint:pooled [method]
//
// marker ([method] defaults to Reset). For each pooled struct the analyzer
// classifies every field as one of:
//
//   - reset-assigned: the reset method (transitively through same-type
//     helper methods) assigns the field, takes its address, copies into it,
//     calls a Reset-like method on it, or mutates it through a range over
//     the field;
//   - constructor-only: every mutation of the field package-wide sits
//     inside a New* function, so a reused value cannot have changed it;
//   - sticky: annotated //lint:sticky <why> — deliberate warm state
//     (interned handles, sized scratch buffers) with a written
//     justification.
//
// Anything else is a reported leak. A bare //lint:sticky without a reason
// and a sticky marker on a non-pooled field are reported too.
//
// Known approximations, chosen to keep the checker dependency-free and
// predictable: passing a field to a function (including as a method
// receiver) does not count as mutating it, and writes that reach a field
// through a sub-struct or alias pointer are attributed to the innermost
// named type. Both limits apply identically to the reset walk and the
// constructor scan, so they never turn a reset field into a false leak.
var ResetComplete = &Analyzer{
	Name: "resetcomplete",
	Doc:  "every field of a pooled type must be reset for reuse or annotated //lint:sticky <why>",
	Run:  runResetComplete,
}

const (
	stickyPrefix = "lint:sticky"
	pooledPrefix = "lint:pooled"
)

// pooledEntry registers one reused type: the import-path suffix of its
// package, the type name, and the method that must restore it for reuse.
type pooledEntry struct {
	pkgSuffix string
	typeName  string
	method    string
}

// pooledRegistry lists every type the runtime reuses across runs. Session
// itself is restored by Run (its warm path), not by a separate Reset.
var pooledRegistry = []pooledEntry{
	{pkgSuffix: "internal/simtime", typeName: "Engine", method: "Reset"},
	{pkgSuffix: "internal/sched", typeName: "Scheduler", method: "Reset"},
	{pkgSuffix: "internal/taskmodel", typeName: "State", method: "Reset"},
	{pkgSuffix: "internal/trace", typeName: "Recorder", method: "Reset"},
	{pkgSuffix: "internal/eucon", typeName: "Controller", method: "Reset"},
	{pkgSuffix: "internal/eucon", typeName: "Decentralized", method: "Reset"},
	{pkgSuffix: "internal/precision", typeName: "Controller", method: "Reset"},
	{pkgSuffix: "internal/precision", typeName: "Detector", method: "ResetAll"},
	{pkgSuffix: "internal/core", typeName: "Middleware", method: "Reset"},
	{pkgSuffix: "internal/core", typeName: "Session", method: "Run"},
	// Snapshot, Restore and RunTree forks copy a live session into another
	// through one same-shape copy method per stateful type: it must
	// overwrite every run-state field, or the copy silently keeps the
	// destination's own stale value — the same bug class as a partial
	// Reset, on the fork side.
	{pkgSuffix: "internal/simtime", typeName: "Engine", method: "CopyFrom"},
	{pkgSuffix: "internal/sched", typeName: "Scheduler", method: "CopyFrom"},
	{pkgSuffix: "internal/eucon", typeName: "Controller", method: "CopyFrom"},
	{pkgSuffix: "internal/precision", typeName: "Controller", method: "CopyFrom"},
	{pkgSuffix: "internal/core", typeName: "Middleware", method: "copyFrom"},
	{pkgSuffix: "internal/core", typeName: "Session", method: "copyFrom"},
}

func runResetComplete(pass *Pass) {
	// Index struct declarations (in source order) and methods by receiver.
	type structDecl struct {
		spec *ast.TypeSpec
		doc  *ast.CommentGroup
	}
	var declOrder []string
	structs := make(map[string]structDecl)
	methods := make(map[string]map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if _, ok := ts.Type.(*ast.StructType); !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					structs[ts.Name.Name] = structDecl{spec: ts, doc: doc}
					declOrder = append(declOrder, ts.Name.Name)
				}
			case *ast.FuncDecl:
				name := receiverTypeName(d)
				if name == "" {
					continue
				}
				m := methods[name]
				if m == nil {
					m = make(map[string]*ast.FuncDecl)
					methods[name] = m
				}
				m[d.Name.Name] = d
			}
		}
	}

	// Assemble the pooled set: registry matches for this package, then
	// //lint:pooled markers.
	type pooledType struct {
		name   string
		method string
	}
	var pooled []pooledType
	registered := make(map[string]bool)
	for _, e := range pooledRegistry {
		if !strings.HasSuffix(pass.PkgPath, e.pkgSuffix) {
			continue
		}
		if _, ok := structs[e.typeName]; !ok {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"pooled type %s is registered with resetcomplete but not declared as a struct in this package", e.typeName)
			continue
		}
		pooled = append(pooled, pooledType{name: e.typeName, method: e.method})
		registered[e.typeName] = true
	}
	for _, name := range declOrder {
		if registered[name] {
			continue
		}
		if method, ok := pooledMarkerMethod(structs[name].doc); ok {
			pooled = append(pooled, pooledType{name: name, method: method})
		}
	}
	if len(pooled) == 0 {
		return
	}

	sticky := collectSticky(pass)
	mutated := mutationsOutsideNew(pass)

	for _, p := range pooled {
		sd := structs[p.name]
		md := methods[p.name][p.method]
		if md == nil || md.Body == nil {
			pass.Reportf(sd.spec.Name.Pos(),
				"pooled type %s has no %s method to restore it for reuse", p.name, p.method)
			continue
		}
		handled := make(map[string]bool)
		resetAssigned(pass, p.name, md, methods[p.name], handled, make(map[*ast.FuncDecl]bool))

		st := sd.spec.Type.(*ast.StructType)
		for _, field := range st.Fields.List {
			pos := pass.Fset.Position(field.Pos())
			why, isSticky := sticky.lookup(pos.Filename, pos.Line)
			if isSticky {
				if why == "" {
					pass.Reportf(field.Pos(),
						"bare //lint:sticky on %s.%s: state why this field may survive %s", p.name, fieldLabel(field), p.method)
				}
				continue
			}
			for _, name := range fieldNames(field) {
				if handled[name] {
					continue
				}
				if !mutated[p.name][name] {
					continue // constructor-only: a reused value cannot have changed it
				}
				pass.Reportf(field.Pos(),
					"field %s of pooled type %s is mutated outside New* but neither reset by %s nor annotated //lint:sticky <why>",
					name, p.name, p.method)
			}
		}
	}

	sticky.reportOrphans(pass)
}

// receiverTypeName returns the name of a method's receiver type, or "".
func receiverTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// pooledMarkerMethod parses a //lint:pooled [method] marker from a type's
// doc comment.
func pooledMarkerMethod(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, pooledPrefix) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, pooledPrefix))
		if rest == "" {
			return "Reset", true
		}
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			rest = rest[:i]
		}
		return rest, true
	}
	return "", false
}

// fieldNames returns the declared names of a struct field (the type name
// for an embedded field).
func fieldNames(field *ast.Field) []string {
	if len(field.Names) == 0 {
		if id := rootTypeIdent(field.Type); id != nil {
			return []string{id.Name}
		}
		return nil
	}
	out := make([]string, 0, len(field.Names))
	for _, n := range field.Names {
		if n.Name != "_" {
			out = append(out, n.Name)
		}
	}
	return out
}

func fieldLabel(field *ast.Field) string {
	names := fieldNames(field)
	if len(names) == 0 {
		return "(embedded)"
	}
	return strings.Join(names, ",")
}

func rootTypeIdent(t ast.Expr) *ast.Ident {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// stickySet maps file:line to a sticky annotation.
type stickyNote struct {
	why  string
	pos  token.Pos
	used bool
}

type stickySet map[string]map[int]*stickyNote

func collectSticky(pass *Pass) stickySet {
	set := make(stickySet)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, stickyPrefix) {
					continue
				}
				why := strings.TrimSpace(strings.TrimPrefix(text, stickyPrefix))
				pos := pass.Fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = make(map[int]*stickyNote)
					set[pos.Filename] = lines
				}
				lines[pos.Line] = &stickyNote{why: why, pos: c.Pos()}
			}
		}
	}
	return set
}

// lookup finds a sticky annotation on the given line or the line directly
// above, marking it consumed.
func (s stickySet) lookup(file string, line int) (why string, ok bool) {
	lines := s[file]
	if lines == nil {
		return "", false
	}
	for _, l := range []int{line, line - 1} {
		if n := lines[l]; n != nil {
			n.used = true
			return n.why, true
		}
	}
	return "", false
}

// reportOrphans flags sticky annotations that no pooled struct field
// consumed — they would otherwise rot silently.
func (s stickySet) reportOrphans(pass *Pass) {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		lines := make([]int, 0, len(s[name]))
		for line := range s[name] {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			if n := s[name][line]; !n.used {
				pass.Reportf(n.pos, "//lint:sticky has no effect here: it must sit on a pooled struct field (or the line above it)")
			}
		}
	}
}

// pooledFieldOf resolves a mutated expression to a field of a named struct
// type declared in this package. It unwraps element, slice, star, and paren
// layers from the outside, so s.ratios[i][l] resolves to (State, ratios)
// and (*p).buf[lo:hi] to its root field.
func pooledFieldOf(pass *Pass, e ast.Expr) (typeName, fieldName string, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := pass.Info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return "", "", false
			}
			t := pass.Info.TypeOf(x.X)
			if t == nil {
				return "", "", false
			}
			if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
				t = p.Elem()
			}
			named, isNamed := t.(*types.Named)
			if !isNamed || named.Obj().Pkg() != pass.Pkg {
				return "", "", false
			}
			return named.Obj().Name(), x.Sel.Name, true
		default:
			return "", "", false
		}
	}
}

// rootIdentOf unwraps an expression chain to its leftmost identifier.
func rootIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// isResetLikeName recognizes method names that imply a full overwrite of
// their receiver: Reset variants restore pooled values for reuse, and
// CopyFrom variants overwrite a component with another's state — their
// copy-every-field contract is itself enforced on each registered type, so
// a sub-copy call counts as restoring the field.
func isResetLikeName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "reset") || strings.Contains(lower, "copyfrom")
}

// resetAssigned walks the reset method (transitively through same-type
// helper methods) and records which fields of typeName it restores.
func resetAssigned(pass *Pass, typeName string, decl *ast.FuncDecl, typeMethods map[string]*ast.FuncDecl, handled map[string]bool, visited map[*ast.FuncDecl]bool) {
	if visited[decl] {
		return
	}
	visited[decl] = true

	markIfField := func(e ast.Expr) {
		if tn, f, ok := pooledFieldOf(pass, e); ok && tn == typeName {
			handled[f] = true
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markIfField(lhs)
			}
		case *ast.IncDecStmt:
			markIfField(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markIfField(x.X)
			}
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "copy" && len(x.Args) > 0 {
					markIfField(x.Args[0])
				}
			case *ast.SelectorExpr:
				// recv.field.Reset(): a Reset-like call restores the field.
				if isResetLikeName(fun.Sel.Name) {
					markIfField(fun.X)
				}
				// recv.helper(): recurse into same-type helper methods.
				if tn := receiverTypeNameOf(pass, fun.X); tn == typeName {
					if helper := typeMethods[fun.Sel.Name]; helper != nil && helper.Body != nil {
						resetAssigned(pass, typeName, helper, typeMethods, handled, visited)
					}
				}
			}
		case *ast.RangeStmt:
			tn, f, ok := pooledFieldOf(pass, x.X)
			if !ok || tn != typeName {
				return true
			}
			valueObj := rangeValueObj(pass, x)
			if valueObj != nil && rangeBodyResets(pass, valueObj, x.Body) {
				handled[f] = true
			}
		}
		return true
	})
}

// receiverTypeNameOf resolves an expression's type to a named type declared
// in this package, dereferencing one pointer layer.
func receiverTypeNameOf(pass *Pass, e ast.Expr) string {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == pass.Pkg {
		return named.Obj().Name()
	}
	return ""
}

func rangeValueObj(pass *Pass, r *ast.RangeStmt) types.Object {
	id, ok := r.Value.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.ObjectOf(id)
}

// rangeBodyResets reports whether the body mutates through the range value
// variable or calls a Reset-like method on it — the pooled free-list
// rebuild pattern (`for _, c := range s.all { c.next = ... }`).
func rangeBodyResets(pass *Pass, valueObj types.Object, body *ast.BlockStmt) bool {
	found := false
	viaValue := func(e ast.Expr) bool {
		id := rootIdentOf(e)
		return id != nil && pass.Info.ObjectOf(id) == valueObj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if viaValue(lhs) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if viaValue(x.X) {
				found = true
			}
		case *ast.CallExpr:
			if fun, ok := x.Fun.(*ast.SelectorExpr); ok && isResetLikeName(fun.Sel.Name) && viaValue(fun.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// mutationsOutsideNew scans the whole package and records, per declared
// struct type, which fields are mutated anywhere outside New* functions.
// Fields absent from the result are constructor-only: a pooled value
// handed back for reuse cannot have changed them since construction.
func mutationsOutsideNew(pass *Pass) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	mark := func(e ast.Expr) {
		tn, f, ok := pooledFieldOf(pass, e)
		if !ok {
			return
		}
		m := out[tn]
		if m == nil {
			m = make(map[string]bool)
			out[tn] = m
		}
		m[f] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			if strings.HasPrefix(d.Name.Name, "New") {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						mark(x.X)
					}
				case *ast.CallExpr:
					if fun, isIdent := x.Fun.(*ast.Ident); isIdent && fun.Name == "copy" && len(x.Args) > 0 {
						mark(x.Args[0])
					}
				}
				return true
			})
		}
	}
	return out
}
