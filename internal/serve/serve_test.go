package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
)

// libraryConfig builds the core.RunConfig the server is contractually
// bound to execute for spec — the parity pin for the golden tests.
func libraryConfig(t *testing.T, spec *RunSpec) core.RunConfig {
	t.Helper()
	r, err := resolve(spec)
	if err != nil {
		t.Fatalf("resolve(%+v): %v", spec, err)
	}
	var exec exectime.Model = exectime.Nominal{}
	if r.noiseOn {
		exec = exectime.NewNoise(exectime.Nominal{}, r.noise.Spread, r.noise.Seed)
	}
	return core.RunConfig{
		System:     r.sys,
		Exec:       exec,
		Middleware: core.Config{Mode: r.mode},
		Duration:   r.duration,
	}
}

// librarySummary is the canonical summary JSON for spec, computed through
// the library path (core.RunAll).
func librarySummary(t *testing.T, spec *RunSpec) []byte {
	t.Helper()
	res, err := core.RunAll([]core.RunConfig{libraryConfig(t, spec)}, 1)
	if err != nil {
		t.Fatalf("core.RunAll: %v", err)
	}
	r, _ := resolve(spec)
	return appendSummary(nil, r.mode, r.durationS, res[0])
}

// libraryColfmt is the canonical colfmt body for spec (magic + one run).
func libraryColfmt(t *testing.T, spec *RunSpec) []byte {
	t.Helper()
	res, err := core.RunAll([]core.RunConfig{libraryConfig(t, spec)}, 1)
	if err != nil {
		t.Fatalf("core.RunAll: %v", err)
	}
	return colfmt.AppendRun(colfmt.AppendMagic(nil), res[0].Trace)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// goldenSpecs cover every workload kind, all three modes, and noise
// on/off.
var goldenSpecs = []struct {
	name string
	spec RunSpec
	json string
}{
	{
		name: "testbed autoe2e nominal",
		spec: RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.2},
		json: `{"workload":{"name":"testbed"},"duration_s":0.2}`,
	},
	{
		name: "testbed eucon noisy",
		spec: RunSpec{Workload: WorkloadSpec{Name: "testbed"}, Mode: "eucon", DurationS: 0.2, Noise: NoiseSpec{Spread: 0.2, Seed: 7}},
		json: `{"workload":{"name":"testbed"},"mode":"eucon","duration_s":0.2,"noise":{"spread":0.2,"seed":7}}`,
	},
	{
		name: "simulation open",
		spec: RunSpec{Workload: WorkloadSpec{Name: "simulation"}, Mode: "open", DurationS: 0.1},
		json: `{"workload":{"name":"simulation"},"mode":"open","duration_s":0.1}`,
	},
	{
		name: "synthetic autoe2e noisy",
		spec: RunSpec{Workload: WorkloadSpec{Name: "synthetic", Seed: 3, ECUs: 4, Tasks: 12}, DurationS: 0.1, Noise: NoiseSpec{Spread: 0.1, Seed: 11}},
		json: `{"workload":{"name":"synthetic","seed":3,"ecus":4,"tasks":12},"duration_s":0.1,"noise":{"spread":0.1,"seed":11}}`,
	},
}

// TestRunGoldenSummary pins the HTTP summary response byte-identical to
// the library path: the "summary" section must equal appendSummary over
// core.RunAll for the same config.
func TestRunGoldenSummary(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, tc := range goldenSpecs {
		t.Run(tc.name, func(t *testing.T) {
			want := librarySummary(t, &tc.spec)
			resp, body := postJSON(t, ts.URL+"/v1/run", tc.json)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			prefix := append([]byte(`{"summary":`), want...)
			if !bytes.HasPrefix(body, prefix) {
				t.Fatalf("summary section diverges from library core.RunAll\n got: %.200s\nwant: %.200s", body, prefix)
			}
			rest := body[len(prefix):]
			if !bytes.HasPrefix(rest, []byte(`,"timing_ns":`)) || !bytes.HasSuffix(rest, []byte("}}")) {
				t.Fatalf("malformed timing tail: %s", rest)
			}
			// The whole body must also be valid JSON with sane timings.
			var parsed struct {
				Summary  json.RawMessage  `json:"summary"`
				TimingNs map[string]int64 `json:"timing_ns"`
			}
			if err := json.Unmarshal(body, &parsed); err != nil {
				t.Fatalf("response is not valid JSON: %v", err)
			}
			for _, k := range []string{"queue_wait_ns", "batch_wait_ns", "run_ns", "serialize_ns"} {
				if v, ok := parsed.TimingNs[k]; !ok || v < 0 {
					t.Errorf("timing_ns[%q] = %d, %v", k, v, ok)
				}
			}
		})
	}
}

// TestRunGoldenColfmt pins the colfmt response body byte-identical to the
// library trace: magic + AppendRun of the core.RunAll recorder.
func TestRunGoldenColfmt(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, tc := range goldenSpecs {
		t.Run(tc.name, func(t *testing.T) {
			want := libraryColfmt(t, &tc.spec)
			body := strings.TrimSuffix(tc.json, "}") + `,"trace":"colfmt"}`
			resp, got := postJSON(t, ts.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, got)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
				t.Errorf("Content-Type = %q", ct)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("colfmt body diverges from library trace: got %d bytes, want %d", len(got), len(want))
			}
			if resp.Header.Get("X-Autoe2e-Run-Ns") == "" {
				t.Error("missing X-Autoe2e-Run-Ns timing header")
			}
		})
	}
}

// librarySweep is the canonical sweep over seeds of the testbed spec the
// sweep tests post: the colfmt body (magic + one run per seed) and each
// seed's summary JSON, computed through core.RunAll.
func librarySweep(t *testing.T, seeds []int64) (col []byte, sums [][]byte) {
	t.Helper()
	col = colfmt.AppendMagic(nil)
	for _, seed := range seeds {
		spec := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.1, Noise: NoiseSpec{Spread: 0.15, Seed: seed}}
		res, err := core.RunAll([]core.RunConfig{libraryConfig(t, &spec)}, 1)
		if err != nil {
			t.Fatalf("core.RunAll: %v", err)
		}
		col = colfmt.AppendRun(col, res[0].Trace)
		r, _ := resolve(&spec)
		sums = append(sums, appendSummary(nil, r.mode, r.durationS, res[0]))
	}
	return col, sums
}

// TestSweepGolden pins a sweep response to the library results for the
// same per-seed configs, in seed order, for both body formats.
func TestSweepGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	seeds := []int64{3, 1, 4, 1, 5}
	wantCol, wantSums := librarySweep(t, seeds)

	t.Run("colfmt", func(t *testing.T) {
		resp, got := postJSON(t, ts.URL+"/v1/sweep",
			`{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.15},"trace":"colfmt"},"seeds":[3,1,4,1,5]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, wantCol) {
			t.Fatalf("sweep colfmt body diverges: got %d bytes, want %d", len(got), len(wantCol))
		}
	})
	t.Run("summary", func(t *testing.T) {
		resp, got := postJSON(t, ts.URL+"/v1/sweep",
			`{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.15}},"seeds":[3,1,4,1,5]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, got)
		}
		for i, want := range wantSums {
			idx := bytes.Index(got, want)
			if idx < 0 {
				t.Fatalf("seed %d summary missing from sweep body", seeds[i])
			}
			got = got[idx+len(want):] // enforce seed order
		}
	})
}

// TestValidation covers the admission gate's 400s.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, path, body string
	}{
		{"bad json", "/v1/run", `{`},
		{"unknown field", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.1,"wat":1}`},
		{"unknown workload", "/v1/run", `{"workload":{"name":"nope"},"duration_s":0.1}`},
		{"unknown mode", "/v1/run", `{"workload":{"name":"testbed"},"mode":"nope","duration_s":0.1}`},
		{"zero duration", "/v1/run", `{"workload":{"name":"testbed"}}`},
		{"huge duration", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":1e9}`},
		{"bad spread", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":1.5}}`},
		{"bad trace", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.1,"trace":"nope"}`},
		{"synthetic too big", "/v1/run", `{"workload":{"name":"synthetic","ecus":100,"tasks":10},"duration_s":0.1}`},
		{"sweep both", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.1}},"seeds":[1],"count":2}`},
		{"sweep neither", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1}}`},
		{"sweep no noise", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1},"count":4}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
		})
	}
}

// TestShutdownDrain asserts the graceful-shutdown contract: every request
// accepted before Shutdown gets a complete response, none are dropped.
func TestShutdownDrain(t *testing.T) {
	s := NewServer(Options{Workers: 2, QueueDepth: 256})
	const n = 64
	spec := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.05, Noise: NoiseSpec{Spread: 0.1}}

	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := spec
			sp.Noise.Seed = int64(i)
			var resp Response
			s.Execute(&sp, &resp)
			statuses[i] = resp.Status
			bodies[i] = append([]byte(nil), resp.Body...)
		}(i)
	}
	// Shutdown only after every request has been admitted: accepted is
	// bumped under the admission read-lock, and Shutdown's write-lock
	// serializes against in-flight enqueues.
	for s.metrics.Accepted() < n {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s) — accepted request dropped or failed", i, statuses[i], bodies[i])
		}
		if len(bodies[i]) == 0 {
			t.Fatalf("request %d: empty body", i)
		}
	}
	if got, want := s.metrics.Completed(), uint64(n); got != want {
		t.Fatalf("completed = %d, want %d", got, want)
	}
	// Post-drain requests are refused with the draining status.
	var resp Response
	s.Execute(&spec, &resp)
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", resp.Status)
	}
}

// parkWorker enqueues a run whose hook parks the worker that picks it up,
// and returns once it is parked. The returned release unparks it, checks
// the parked run answered 200 and recycles it; it is idempotent, so a test
// defers it (after deferring Close) to unpark on every exit path —
// Close drains, and would wait forever on a parked worker.
func parkWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	res, err := resolve(&RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	parked, gate := make(chan struct{}), make(chan struct{})
	res.hook = func() {
		close(parked)
		<-gate
	}
	hold := s.getPending()
	hold.res = res
	hold.standalone = true
	if err := s.enqueue(hold); err != nil {
		t.Fatalf("enqueue hold: %v", err)
	}
	<-parked
	var once sync.Once
	return func() {
		once.Do(func() {
			close(gate)
			<-hold.done
			if hold.status != http.StatusOK {
				t.Errorf("parked run status = %d: %s", hold.status, hold.buf)
			}
			s.putPending(hold)
		})
	}
}

// TestBackpressure asserts the bounded-queue contract under overload:
// admission never exceeds QueueDepth, the overflow is refused with 429 +
// Retry-After (never buffered), and every accepted request completes.
// The single worker is parked on a test hook so queue occupancy is
// deterministic, not a race against simulation wall time.
func TestBackpressure(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 2})
	defer s.Close()
	release := parkWorker(t, s)
	defer release()
	if used := s.used.Load(); used != 0 {
		t.Fatalf("used = %d after pickup, want 0", used)
	}

	// 3× overload: the parked run no longer holds a slot, so of six more
	// requests exactly QueueDepth = 2 reserve slots and wait in the queue;
	// the other four must get an immediate 429 — bounded memory, no
	// unbounded buffering, no timeouts.
	const extra = 6
	fill := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.01}
	statuses := make([]int, extra)
	var bg sync.WaitGroup
	for i := range statuses {
		bg.Add(1)
		go func() {
			defer bg.Done()
			var resp Response
			sp := fill
			s.Execute(&sp, &resp)
			statuses[i] = resp.Status
			if resp.Status == http.StatusTooManyRequests &&
				!bytes.Contains(resp.Body, []byte(`"retry_after_s":`)) {
				t.Errorf("429 body lacks retry_after_s: %s", resp.Body)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Accepted() < 3 || s.metrics.Rejected() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("accepted = %d, rejected = %d after overload; want 3 and 4",
				s.metrics.Accepted(), s.metrics.Rejected())
		}
		time.Sleep(50 * time.Microsecond)
	}
	if acc, rej, used := s.metrics.Accepted(), s.metrics.Rejected(), s.used.Load(); acc != 3 || rej != 4 || used != 2 {
		t.Fatalf("accepted = %d, rejected = %d, used = %d; want 3, 4 and 2", acc, rej, used)
	}

	release()
	bg.Wait()
	var ok, refused int
	for _, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			refused++
		}
	}
	if ok != 2 || refused != 4 {
		t.Fatalf("statuses %v: %d OK and %d 429, want 2 and 4", statuses, ok, refused)
	}
	if acc, comp := s.metrics.Accepted(), s.metrics.Completed(); acc != comp {
		t.Fatalf("accepted %d != completed %d after drain", acc, comp)
	}
}

// TestSweepSpreadsOverFreeWorker pins work conservation: with one of two
// workers parked, an 8-seed sweep still completes — every child runs on
// the free worker — and its body is byte-identical to the library sweep.
func TestSweepSpreadsOverFreeWorker(t *testing.T) {
	s := NewServer(Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := parkWorker(t, s)
	defer release()

	want, _ := librarySweep(t, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(
		`{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.15},"trace":"colfmt"},"count":8}`))
	if err != nil {
		t.Fatalf("sweep with one worker parked: %v", err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, got.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sweep colfmt body diverges: got %d bytes, want %d", got.Len(), len(want))
	}
}

// TestRunPanicIsolated pins the panic barrier: a run that panics answers
// 500 for that request only and is counted, a sweep with a panicking child
// fails only that child, accepted == completed still holds, and the
// worker drops the session and serves the next same-shape run on a fresh
// one, byte-identical to the library result.
func TestRunPanicIsolated(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	spec := goldenSpecs[1].spec
	var resp Response
	s.Execute(&spec, &resp) // warm the shape's session
	if resp.Status != http.StatusOK {
		t.Fatalf("warmup status = %d: %s", resp.Status, resp.Body)
	}

	res, err := resolve(&spec)
	if err != nil {
		t.Fatal(err)
	}
	// Reading the table is safe once a response is back and before the
	// next request: the worker is parked on the empty queue.
	warm := s.sessions[0][res.shape]
	boom := res
	boom.hook = func() { panic("injected fault") }
	p := s.getPending()
	p.res = boom
	p.standalone = true
	if err := s.enqueue(p); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	<-p.done
	if p.status != http.StatusInternalServerError || !bytes.Contains(p.buf, []byte("injected fault")) {
		t.Fatalf("panicking run: status %d, body %s; want 500 naming the panic", p.status, p.buf)
	}
	s.putPending(p)

	parent := &sweepParent{children: make([]*pending, 3), done: make(chan struct{}, 1)}
	for i := range parent.children {
		c := s.getPending()
		c.res = res
		if i == 1 {
			c.res = boom
		}
		c.parent = parent
		parent.children[i] = c
	}
	if err := s.enqueueSweep(parent); err != nil {
		t.Fatalf("enqueueSweep: %v", err)
	}
	<-parent.done
	for i, c := range parent.children {
		want := http.StatusOK
		if i == 1 {
			want = http.StatusInternalServerError
		}
		if c.status != want {
			t.Errorf("sweep child %d: status %d, want %d: %s", i, c.status, want, c.buf)
		}
		s.putPending(c)
	}

	s.Execute(&spec, &resp)
	if resp.Status != http.StatusOK {
		t.Fatalf("post-panic status = %d: %s", resp.Status, resp.Body)
	}
	if want := append([]byte(`{"summary":`), librarySummary(t, &spec)...); !bytes.HasPrefix(resp.Body, want) {
		t.Fatalf("post-panic summary diverges from library core.RunAll\n got: %.200s\nwant: %.200s", resp.Body, want)
	}
	if s.sessions[0][res.shape] == warm {
		t.Error("worker kept the session a panicked run left torn")
	}
	if got := s.metrics.panics.Load(); got != 2 {
		t.Errorf("panics = %d, want 2", got)
	}
	if acc, comp := s.metrics.Accepted(), s.metrics.Completed(); acc != comp {
		t.Fatalf("accepted %d != completed %d", acc, comp)
	}
}

// TestCachesBounded pins both interning caches under a client cycling
// more distinct synthetic specs than either cap: the system cache and
// every worker's session table stay within their caps, and every response
// still matches the library result.
func TestCachesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewServer(Options{Workers: 2})
	var resp Response
	for seed := int64(0); seed < maxSystems+8; seed++ {
		spec := RunSpec{Workload: WorkloadSpec{Name: "synthetic", Seed: seed, ECUs: 2, Tasks: 3}, DurationS: 0.01}
		s.Execute(&spec, &resp)
		if resp.Status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.Status, resp.Body)
		}
		if want := append([]byte(`{"summary":`), librarySummary(t, &spec)...); !bytes.HasPrefix(resp.Body, want) {
			t.Fatalf("seed %d: summary diverges from library core.RunAll\n got: %.200s\nwant: %.200s", seed, resp.Body, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	systemCache.mu.Lock()
	n := len(systemCache.m)
	systemCache.mu.Unlock()
	if n > maxSystems {
		t.Errorf("system cache holds %d specs, cap %d", n, maxSystems)
	}
	for i, sessions := range s.sessions {
		if len(sessions) > maxWorkerSessions {
			t.Errorf("worker %d holds %d sessions, cap %d", i, len(sessions), maxWorkerSessions)
		}
	}
}

// TestExecuteWarmAllocs gates the steady-state per-request allocation
// count of the full admission → worker → session → serialize pipeline, the
// serve analogue of the hot-path alloc gates in bench_test.go.
func TestExecuteWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	spec := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.05, Noise: NoiseSpec{Spread: 0.1, Seed: 1}}
	var resp Response
	for i := 0; i < 8; i++ { // warm the session, pools, and buffers
		spec.Noise.Seed = int64(i)
		s.Execute(&spec, &resp)
		if resp.Status != http.StatusOK {
			t.Fatalf("warmup status = %d: %s", resp.Status, resp.Body)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		s.Execute(&spec, &resp)
	})
	// The run itself is the session's zero-alloc steady state; the serve
	// layer adds only pooled/reused structures. A small slack absorbs
	// sync.Pool victim-cache misses.
	if avg > 3 {
		t.Fatalf("Execute steady state allocates %.1f/op, want <= 3", avg)
	}
}

// TestMetricsEndpoint sanity-checks the aggregate CSV shape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postJSON(t, ts.URL+"/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.05}`)
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.05}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	csv := buf.String()
	for _, want := range []string{
		"stage,count,mean_ns,p50_ns,p95_ns,p99_ns,max_ns",
		"queue_wait,", "batch_wait,", "run,", "serialize,", "total,",
		"counter,value", "accepted,", "rejected_429,", "completed,",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("metrics CSV missing %q:\n%s", want, csv)
		}
	}
	_ = body
}

// TestHistogram pins the log-linear histogram's percentile math.
func TestHistogram(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 1000; v++ {
		h.observe(v)
	}
	if got := h.count.Load(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	// Lower-bound percentiles: within one bucket (12.5% relative) below
	// the true quantile.
	for _, tc := range []struct{ p, lo, hi float64 }{
		{0.50, 400, 501}, {0.95, 800, 951}, {0.99, 850, 991},
	} {
		got := float64(h.percentile(tc.p))
		if got < tc.lo || got > tc.hi {
			t.Errorf("p%.0f = %v, want in [%v, %v]", tc.p*100, got, tc.lo, tc.hi)
		}
	}
	if got := h.max.Load(); got != 1000 {
		t.Errorf("max = %d", got)
	}
	if m := h.mean(); m < 500 || m > 501 {
		t.Errorf("mean = %v", m)
	}
	if got := bucketLow(bucketOf(12345)); got > 12345 || 12345-got > 12345/8 {
		t.Errorf("bucketLow(bucketOf(12345)) = %d", got)
	}
}
