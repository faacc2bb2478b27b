package lint

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// escapeSite is one compiler-attributed heap allocation.
type escapeSite struct {
	file string // absolute path
	line int
	col  int
	msg  string
}

// escapeCache memoizes one `go build -gcflags=-m` per build target, so
// the effects analysis of an N-package module costs one compile, not N.
var escapeCache = struct {
	sync.Mutex
	m map[string]*escapeAnalysis
}{m: make(map[string]*escapeAnalysis)}

type escapeAnalysis struct {
	sites []escapeSite
	err   error
}

func underTestdata(dir string) bool {
	for _, seg := range strings.Split(filepath.ToSlash(dir), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

func cachedEscapeRun(key, dir, target string) *escapeAnalysis {
	escapeCache.Lock()
	defer escapeCache.Unlock()
	if ea := escapeCache.m[key]; ea != nil {
		return ea
	}
	ea := runEscapeBuild(dir, target)
	escapeCache.m[key] = ea
	return ea
}

// escapeLineRe matches one compiler diagnostic: path:line:col: message.
var escapeLineRe = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.+)$`)

// runEscapeBuild invokes the compiler's escape analysis and parses the
// heap-escape sites out of its diagnostics. Relative paths (the compiler
// prints module-root-relative paths for ./... builds and ./file.go for
// single files) are resolved against dir.
func runEscapeBuild(dir, target string) *escapeAnalysis {
	cmd := exec.Command("go", "build", "-gcflags=-m", target)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return &escapeAnalysis{err: fmt.Errorf("go build -gcflags=-m %s: %v\n%s", target, err, out)}
	}
	seen := make(map[escapeSite]bool)
	var sites []escapeSite
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !isHeapEscapeMsg(msg) {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		path := m[1]
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			continue
		}
		site := escapeSite{file: abs, line: lineNo, col: colNo, msg: msg}
		if !seen[site] {
			seen[site] = true
			sites = append(sites, site)
		}
	}
	return &escapeAnalysis{sites: sites}
}

// isHeapEscapeMsg keeps the diagnostics that mean a per-call heap
// allocation: "... escapes to heap" and "moved to heap: x". Constant
// strings (static data) and "does not escape" / "leaking param" chatter
// are dropped.
func isHeapEscapeMsg(msg string) bool {
	if strings.HasPrefix(msg, `"`) {
		return false
	}
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
}
