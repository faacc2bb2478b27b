package serve

import (
	"bytes"
	"strings"
	"testing"

	"github.com/autoe2e/autoe2e/internal/simtime"
)

// FuzzRequestBoundary drives arbitrary bytes through the request boundary
// the handlers use: strict decoding as a RunSpec and as a SweepSpec, then
// resolve and resolveSweep's seed-list check. Every input is either
// rejected with an error or yields an admission-ready request — an
// interned system, a duration in (0, 3600 s], between 1 and maxSweepRuns
// runs with a seed for each — and nothing panics. A body the decoder
// accepts, followed by a tail holding any non-whitespace byte, is never
// accepted. Accepted specs are not run: a legal one can simulate for
// minutes, until a per-request cost cap bounds that.
func FuzzRequestBoundary(f *testing.F) {
	tails := [][]byte{nil, []byte(" trailing garbage {\"wat\":"), []byte("\n{}"), []byte(" \t\r\n")}
	var bodies []string
	for _, tc := range goldenSpecs {
		bodies = append(bodies, tc.json,
			strings.TrimSuffix(tc.json, "}")+`,"trace":"colfmt"}`,
			`{"base":`+tc.json+`,"count":3}`)
	}
	for _, tc := range validationCases {
		bodies = append(bodies, tc.body)
	}
	bodies = append(bodies,
		`{"base":{"workload":{"name":"testbed"},"duration_s":2,"noise":{"spread":0.15},"trace":"colfmt"},"seeds":[3,1,4,1,5]}`,
		`{"base":{"workload":{"name":"testbed"},"duration_s":2,"noise":{"spread":0.15}},"count":8}`)
	for i, b := range bodies {
		f.Add([]byte(b), tails[i%len(tails)])
	}

	f.Fuzz(func(t *testing.T, body, tail []byte) {
		trailing := len(bytes.Trim(tail, " \t\r\n")) > 0
		joined := append(append([]byte(nil), body...), tail...)
		var run RunSpec
		if decode(bytes.NewReader(body), &run) == nil {
			if res, err := resolve(&run); err == nil {
				checkAdmissionReady(t, &res, false)
			}
			if trailing && decode(bytes.NewReader(joined), &RunSpec{}) == nil {
				t.Fatalf("run spec %q accepted with trailing %q", body, tail)
			}
		}
		var sweep SweepSpec
		if decode(bytes.NewReader(body), &sweep) == nil {
			if res, err := resolveSweep(&sweep, maxSweepRuns); err == nil {
				checkAdmissionReady(t, &res, true)
			}
			if trailing && decode(bytes.NewReader(joined), &SweepSpec{}) == nil {
				t.Fatalf("sweep spec %q accepted with trailing %q", body, tail)
			}
		}
	})
}

// checkAdmissionReady fails t unless res is a request the workers can run.
func checkAdmissionReady(t *testing.T, res *resolved, sweep bool) {
	t.Helper()
	if res.sys == nil {
		t.Fatal("accepted request has no system")
	}
	if res.durationS <= 0 || res.durationS > 3600 || res.duration <= 0 || res.duration > simtime.FromSeconds(3600) {
		t.Fatalf("accepted duration %v s (%v), want (0, 3600 s]", res.durationS, res.duration)
	}
	if res.noise.Spread < 0 || res.noise.Spread >= 1 || res.noiseOn != (res.noise.Spread > 0) {
		t.Fatalf("accepted noise %+v (on %v)", res.noise, res.noiseOn)
	}
	if res.runs < 1 || res.runs > maxSweepRuns {
		t.Fatalf("accepted %d runs, want [1, %d]", res.runs, maxSweepRuns)
	}
	if res.sweep != sweep || (!sweep && (res.runs != 1 || res.seeds != nil)) {
		t.Fatalf("request framing: sweep %v, runs %d, %d seeds", res.sweep, res.runs, len(res.seeds))
	}
	if res.seeds != nil && len(res.seeds) != res.runs {
		t.Fatalf("%d runs over %d seeds", res.runs, len(res.seeds))
	}
	if res.runs > 1 && !res.noiseOn {
		t.Fatalf("%d runs without noise would all be identical", res.runs)
	}
	_ = res.seed(res.runs - 1)
}
