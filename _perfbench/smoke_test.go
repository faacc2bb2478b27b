package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark must honour.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// smokeSeconds keeps every measured phase to its minimum: one operation.
const smokeSeconds = 0.05

func runSmoke(t *testing.T, workload string, traced, corrupt bool) (*resultOut, string) {
	t.Helper()
	b := newBench(workload, 3, smokeSeconds, traced)
	b.corrupt = corrupt
	var out bytes.Buffer
	res, err := run(&out, b)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, out.String()
}

// TestSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and checks that each declared metric is printed with its unit,
// that the outputs verify, that the traced run's layer times reconcile
// with the run time, and that a corrupted result fails verification.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				defs := m.EndToEnd
				if traced {
					defs = m.PerLayer
				}
				res, text := runSmoke(t, name, traced, false)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v failed=%d attempted=%d\n%s", traced, res.Correct, res.Failed, res.Attempted, text)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(defs))
				}
				lines := strings.Split(text, "\n")
				last := lines[len(lines)-2]
				for _, d := range defs {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s: got %+v, want unit %s", traced, d.Name, got, d.Unit)
					}
					if !strings.Contains(text, fmt.Sprintf("%-34s ", d.Name)) || !strings.Contains(last, `"`+d.Name+`"`) {
						t.Errorf("trace=%v: metric %s is not printed", traced, d.Name)
					}
				}
				if traced {
					if r := res.Metrics["core.reconcile_residual"].Value; r > reconcileShare || r < -reconcileShare {
						t.Errorf("traced run does not reconcile: residual %.3f", r)
					}
				}
			}
			if res, text := runSmoke(t, name, false, true); res.Correct || res.Failed == 0 {
				t.Errorf("a corrupted result passed verification:\n%s", text)
			}
		})
	}
}
