package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// listedPackage is the part of one `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

// listFields names listedPackage's fields, so go list computes no others.
const listFields = "-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Error"

// moduleList is one module root as the go tool lists it: the main
// module's packages in import-path order.
type moduleList struct {
	pkgs  []*listedPackage
	index map[string]*listedPackage
}

// lookup returns the module package with the given import path, or nil
// (also on a loader with no module context).
func (m *moduleList) lookup(path string) *listedPackage {
	if m == nil {
		return nil
	}
	return m.index[path]
}

// listCache memoizes `go list` runs for the process, the way escapeCache
// memoizes the escape build: one listing per module root, and every
// package any run listed with export data, by import path.
var listCache = struct {
	sync.Mutex
	modules map[string]*moduleList
	exports map[string]*listedPackage
}{modules: make(map[string]*moduleList), exports: make(map[string]*listedPackage)}

// listModule lists the module rooted at root with `go list -e -json ./...`
// (each package's build-selected files and their imports), then has a
// second run, `go list -e -json -deps -export`, compile only the imports
// from outside the module: the module itself is type-checked from source.
func listModule(root string) (*moduleList, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	listCache.Lock()
	defer listCache.Unlock()
	if m := listCache.modules[abs]; m != nil {
		return m, nil
	}
	listed, err := goList(abs, "./...")
	if err != nil {
		return nil, err
	}
	m := &moduleList{pkgs: listed, index: make(map[string]*listedPackage)}
	for _, lp := range listed {
		m.index[lp.ImportPath] = lp
	}
	deps := []string{"-deps", "-export"} // go list drops repeated paths
	for _, lp := range listed {
		for _, path := range slices.Concat(lp.Imports, lp.TestImports, lp.XTestImports) {
			if m.index[path] == nil {
				deps = append(deps, path)
			}
		}
	}
	if len(deps) > 2 {
		if _, err := goList(abs, deps...); err != nil {
			return nil, err
		}
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].ImportPath < m.pkgs[j].ImportPath })
	listCache.modules[abs] = m
	return m, nil
}

// openExport opens the export data the go tool compiled for path. A path
// no earlier run listed (a fixture's import) is listed, with its
// dependencies, from the working directory; a module listing already
// names every import of the module and its tests.
func openExport(path string) (io.ReadCloser, error) {
	listCache.Lock()
	defer listCache.Unlock()
	lp := listCache.exports[path]
	if lp == nil {
		if _, err := goList("", "-deps", "-export", path); err != nil {
			return nil, err
		}
		lp = listCache.exports[path]
	}
	switch {
	case lp == nil:
		return nil, fmt.Errorf("lint: go list did not list %s", path)
	case lp.Error != nil:
		return nil, fmt.Errorf("lint: %s: %s", path, lp.Error.Err)
	case lp.Export == "":
		return nil, fmt.Errorf("lint: go list has no export data for %s", path)
	}
	return os.Open(lp.Export)
}

// goList runs `go list -e -json` on args in dir and records every package
// it lists with export data (asked for with an -export arg) or an error in
// listCache, whose lock the caller holds.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", listFields}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var listed []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		if lp.Export != "" || lp.Error != nil {
			listCache.exports[lp.ImportPath] = lp
		}
		listed = append(listed, lp)
	}
	return listed, nil
}
