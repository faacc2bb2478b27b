package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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
	// ForTest is set on the test variants -test adds. The loader skips
	// them, and the pkg.test mains, building its own test packages from
	// TestGoFiles and XTestGoFiles.
	ForTest string
	Module  *struct{ Main bool }
	Error   *struct{ Err string }
}

// listFields names listedPackage's fields, so go list computes no others.
const listFields = "-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,ForTest,Module,Error"

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
// package any run listed, by import path, for its export data.
var listCache = struct {
	sync.Mutex
	modules map[string]*moduleList
	exports map[string]*listedPackage
}{modules: make(map[string]*moduleList), exports: make(map[string]*listedPackage)}

// listModule lists the module rooted at root with
// `go list -e -json -deps -test -export ./...`: the module's packages
// with the files their build constraints select, and the export data of
// every dependency, the test files' own included.
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
	listed, err := goList(abs, "-test", "./...")
	if err != nil {
		return nil, err
	}
	m := &moduleList{index: make(map[string]*listedPackage)}
	for _, lp := range listed {
		if lp.Module != nil && lp.Module.Main && lp.ForTest == "" && !strings.HasSuffix(lp.ImportPath, ".test") {
			m.pkgs = append(m.pkgs, lp)
			m.index[lp.ImportPath] = lp
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
		if _, err := goList("", path); err != nil {
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

// goList runs `go list -e -json -deps -export` on args in dir and records
// every listed package but the test variants in listCache, whose lock the
// caller holds.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", listFields, "-deps", "-export"}, args...)...)
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
		if lp.ForTest == "" {
			listCache.exports[lp.ImportPath] = lp
		}
		listed = append(listed, lp)
	}
	return listed, nil
}
