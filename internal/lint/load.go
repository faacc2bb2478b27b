package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the full import path.
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's expression and object facts.
	Info *types.Info
}

// Loader parses and type-checks packages without any dependency outside the
// standard library: the module's own packages are discovered by walking the
// file tree, and imports are resolved by the go/types "source" importer,
// which compiles straight from source and therefore works offline.
//
// Module-internal imports are special-cased: once LoadModule (or
// LoadModuleTests) establishes the module context, an import of a module
// package is satisfied by the loader's own source-checked result — loaded
// on demand, dependencies first — instead of a second, independent
// type-check. That keeps type and object identity consistent across the
// whole module, which the interprocedural analyses depend on: a call from
// core into simtime must resolve to the same *types.Func the simtime
// package declared, or interface satisfaction and call-graph node lookup
// silently degrade to "external".
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer

	// Module context, set by LoadModule/LoadModuleTests.
	modPath string
	modRoot string
	// cache holds the canonical per-import-path packages (non-test
	// sources only); loading guards against import cycles.
	cache   map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader with a fresh file set.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.imp = &moduleImporter{l: l, fallback: importer.ForCompiler(fset, "source", nil)}
	return l
}

// moduleImporter resolves module-internal import paths through the owning
// Loader (preserving object identity) and everything else through the
// stock source importer.
type moduleImporter struct {
	l        *Loader
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if pkg := l.cache[path]; pkg != nil {
		return pkg.Pkg, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		dir := l.modRoot
		if rel != "" {
			dir = filepath.Join(l.modRoot, filepath.FromSlash(rel))
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return m.fallback.Import(path)
}

// setModuleContext records the module root so module-internal imports are
// served from the loader's own results from here on.
func (l *Loader) setModuleContext(root string) (string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	l.modPath, l.modRoot = modPath, abs
	return modPath, nil
}

// LoadModule discovers every non-test package in the module rooted at root
// (the directory containing go.mod), parses it, type-checks it, and returns
// the packages sorted by import path. Directories named testdata or vendor
// and hidden/underscore directories are skipped, matching the go tool.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	modPath, err := l.setModuleContext(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadModuleTests discovers the module's _test.go files and returns them
// as analyzable packages: per directory, one package augmenting the
// non-test sources with the in-package test files (so test files can
// reference unexported declarations), and one standalone package for an
// external foo_test package if present. Only the value-level analyzers
// (mapiter, floateq) run over these; callers filter diagnostics to
// _test.go files so the augmented packages don't duplicate the main run.
func (l *Loader) LoadModuleTests(root string) ([]*Package, error) {
	modPath, err := l.setModuleContext(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasTests := false
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), "_test.go") {
				hasTests = true
				break
			}
		}
		if !hasTests {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		dirPkgs, err := l.loadDirTests(path, importPath)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, dirPkgs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadDirTests splits one directory's test files into the in-package
// augmented package and the external _test package, loading whichever
// exist.
func (l *Loader) loadDirTests(dir, importPath string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var base, inPkg, external []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case !strings.HasSuffix(e.Name(), "_test.go"):
			base = append(base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			external = append(external, f)
		default:
			inPkg = append(inPkg, f)
		}
	}
	var out []*Package
	ext := l
	if len(inPkg) > 0 {
		pkg, err := l.check(importPath, dir, append(base, inPkg...))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		ext = l.forkWith(pkg)
	}
	if len(external) > 0 {
		pkg, err := ext.check(importPath+"_test", dir, external)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// forkWith returns a loader that resolves pkg's import path to pkg itself,
// as the go tool builds an external test package against the package
// under test augmented with its in-package test files, so helpers those
// files export are visible. pkg's own module dependencies cannot import it
// and are shared; any other module package is re-checked from source on
// demand, against pkg, so its types agree with the external test's.
func (l *Loader) forkWith(pkg *Package) *Loader {
	f := &Loader{
		Fset:    l.Fset,
		modPath: l.modPath,
		modRoot: l.modRoot,
		cache:   map[string]*Package{pkg.Path: pkg},
		loading: make(map[string]bool),
	}
	f.imp = &moduleImporter{l: f, fallback: l.imp.(*moduleImporter).fallback}
	var share func(p *types.Package)
	share = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if dep := l.cache[imp.Path()]; dep != nil && f.cache[imp.Path()] == nil {
				f.cache[imp.Path()] = dep
				share(imp)
			}
		}
	}
	share(pkg.Pkg)
	return f
}

// LoadDir parses and type-checks the non-test files of one directory as the
// package with the given import path. Within a module context the result
// is canonical: repeated loads return the same package, and loads demanded
// recursively by an importing package are shared with the top-level walk.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg := l.cache[importPath]; pkg != nil {
		return pkg, nil
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	pkg, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// LoadFile parses and type-checks a single file as its own package — the
// fixture-loading path used by the analyzer tests.
func (l *Loader) LoadFile(path, importPath string) (*Package, error) {
	f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(importPath, filepath.Dir(path), []*ast.File{f})
}

func (l *Loader) check(importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(importPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, firstErr)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
