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

// Loader parses and type-checks packages, taking its package graph from
// the go tool: one `go list -e -json -deps -test -export` run per module
// root (see listModule) names each package's directory and the files its
// build constraints select. The module's own packages are parsed and
// type-checked from those files, because the call graph needs their
// bodies; every other import — the standard library, or a fixture's
// import of a module package — is read from the export data the go tool
// compiled, through the "gc" importer. `effects` already needs the go
// tool for the compiler's escape facts, so this adds no dependency.
//
// Module-internal imports are special-cased: once LoadModule (or
// LoadModuleTests) establishes the module context, an import of a module
// package is satisfied by the loader's own source-checked result — loaded
// on demand, dependencies first — instead of its export data. That keeps
// type and object identity consistent across the whole module, which the
// interprocedural analyses depend on: a call from core into simtime must
// resolve to the same *types.Func the simtime package declared, or
// interface satisfaction and call-graph node lookup silently degrade to
// "external".
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer

	// mod is the module listing, set by LoadModule/LoadModuleTests.
	mod *moduleList
	// cache holds the canonical per-import-path packages (non-test
	// sources only).
	cache map[string]*Package
}

// NewLoader returns a loader with a fresh file set.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	l := &Loader{Fset: fset, cache: make(map[string]*Package)}
	l.imp = &moduleImporter{l: l, fallback: importer.ForCompiler(fset, "gc", openExport)}
	return l
}

// moduleImporter resolves module-internal import paths through the owning
// Loader (preserving object identity) and everything else through the
// export-data importer.
type moduleImporter struct {
	l        *Loader
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if pkg := l.cache[path]; pkg != nil {
		return pkg.Pkg, nil
	}
	if lp := l.mod.lookup(path); lp != nil {
		pkg, err := l.load(lp)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return m.fallback.Import(path)
}

// setModuleContext lists the module rooted at root, so module-internal
// imports are served from the loader's own results from here on.
func (l *Loader) setModuleContext(root string) (err error) {
	l.mod, err = listModule(root)
	return err
}

// LoadModule parses and type-checks every non-test package of the module
// rooted at root (the directory containing go.mod) and returns them
// sorted by import path. The packages and their files are the go tool's:
// `./...` from root, with build constraints applied.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	if err := l.setModuleContext(root); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range l.mod.pkgs {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.load(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadModuleTests returns the module's _test.go files as analyzable
// packages: per package, one augmenting the non-test sources with the
// in-package test files (so test files can reference unexported
// declarations), and one standalone package for an external foo_test
// package if present. Only the value-level analyzers (mapiter, floateq)
// run over these; callers filter diagnostics to _test.go files so the
// augmented packages don't duplicate the main run.
func (l *Loader) LoadModuleTests(root string) ([]*Package, error) {
	if err := l.setModuleContext(root); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range l.mod.pkgs {
		testPkgs, err := l.loadTests(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, testPkgs...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadTests loads one listed package's in-package test files, augmented
// with its non-test sources, and its external _test package, whichever
// exist.
func (l *Loader) loadTests(lp *listedPackage) ([]*Package, error) {
	var out []*Package
	ext := l
	if len(lp.TestGoFiles) > 0 {
		pkg, err := l.checkFiles(lp.ImportPath, lp.Dir, lp.GoFiles, lp.TestGoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		ext = l.forkWith(pkg)
	}
	if len(lp.XTestGoFiles) > 0 {
		pkg, err := ext.checkFiles(lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles)
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
	f := &Loader{Fset: l.Fset, mod: l.mod, cache: map[string]*Package{pkg.Path: pkg}}
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

// load parses and type-checks one listed module package's non-test
// files. The result is canonical: repeated loads return the same package,
// and loads demanded recursively by an importing package are shared with
// LoadModule's. A package the go tool could not load or compile (an
// import cycle marks one of its members) is refused with its error.
func (l *Loader) load(lp *listedPackage) (*Package, error) {
	if pkg := l.cache[lp.ImportPath]; pkg != nil {
		return pkg, nil
	}
	if lp.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
	}
	pkg, err := l.checkFiles(lp.ImportPath, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.cache[lp.ImportPath] = pkg
	return pkg, nil
}

// checkFiles parses the named files of dir, in order, and type-checks
// them as the package importPath.
func (l *Loader) checkFiles(importPath, dir string, names ...[]string) (*Package, error) {
	var files []*ast.File
	for _, list := range names {
		for _, name := range list {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	return l.check(importPath, dir, files)
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
