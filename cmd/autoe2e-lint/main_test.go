package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoIsClean is the acceptance gate in test form: the whole module
// must be free of invariant violations (modulo annotated exceptions), so
// `go test ./...` fails the moment a regression lands even before CI runs
// the binary.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("autoe2e-lint exit %d\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", out.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d: %s", code, errb.String())
	}
	names := []string{
		"nodeterminism", "simtimemix", "floateq", "mapiter", "panicguard",
		"unitsafe", "ownedbuf", "resetcomplete", "effects", "parsafe",
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
	if lines := strings.Count(out.String(), "\n"); lines != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", lines, len(names), out.String())
	}
}

func TestOnlyUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer error", errb.String())
	}
}
