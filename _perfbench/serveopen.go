package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/serve"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
	"github.com/autoe2e/autoe2e/internal/workload"
)

const (
	// serveRate is the offered Poisson arrival rate. At 800 requests/s the
	// two client connections queue behind sweeps held in the batcher, which
	// amplifies host speed swings into p99 (IQR/median 0.36 over ten seeds
	// on a 2-vCPU host, p99 above serveSLO); at 400 the p99 meets the SLO.
	serveRate = 400.0
	// serveSLO is the deadline a request must meet, from its scheduled
	// send time to the last byte of its response.
	serveSLO = 5 * time.Millisecond
	// serveRunS is the simulated length of every served run.
	serveRunS = 2.0
	// sweepRuns is the seed count of a sweep request.
	sweepRuns = 8
	// warmupRequests is the fixed request count of the set-up warm-up.
	warmupRequests = 64
	// digestRequests is how many leading requests the digest covers.
	digestRequests = 200
	// bodyRoom is how many times the largest warm-up body of its kind each
	// scheduled request reserves in the response arena.
	bodyRoom = 2
)

type reqKind uint8

const (
	kindSummary reqKind = iota // single 2 s testbed run, summary JSON
	kindColfmt                 // the same run, colfmt trace body
	kindSweep                  // 8-seed sweep, summary JSON
)

// request is one scheduled arrival. Its seeds are seeds[off : off+n].
type request struct {
	due  time.Duration // offset from the start of the schedule
	kind reqKind
	off  int32
	n    int32
}

// schedule is a seeded open-loop arrival plan.
type schedule struct {
	reqs  []request
	seeds []int64
}

// newSchedule draws Poisson arrivals at serveRate over seconds with the
// 80/10/10 summary/colfmt/sweep mix, and returns the plan copied into mem.
func newSchedule(b *bench, seconds float64, mem *offHeap) (schedule, error) {
	var s schedule
	t := 0.0
	for {
		t += b.rng.ExpFloat64() / serveRate
		if t >= seconds {
			break
		}
		r := request{due: time.Duration(t * float64(time.Second)), off: int32(len(s.seeds)), n: 1}
		switch u := b.rng.Float64(); {
		case u < 0.8:
			r.kind = kindSummary
		case u < 0.9:
			r.kind = kindColfmt
		default:
			r.kind, r.n = kindSweep, sweepRuns
		}
		for i := int32(0); i < r.n; i++ {
			s.seeds = append(s.seeds, b.runSeed())
		}
		s.reqs = append(s.reqs, r)
	}
	reqs, err := offHeapSlice[request](mem, len(s.reqs))
	if err != nil {
		return s, err
	}
	seeds, err := offHeapSlice[int64](mem, len(s.seeds))
	if err != nil {
		return s, err
	}
	copy(reqs, s.reqs)
	copy(seeds, s.seeds)
	return schedule{reqs: reqs, seeds: seeds}, nil
}

// appendBody renders a request's JSON body.
func appendBody(dst []byte, kind reqKind, seeds []int64) []byte {
	spec := `{"workload":{"name":"testbed"},"mode":"autoe2e","duration_s":2,"noise":{"spread":0.05,"seed":`
	switch kind {
	case kindSweep:
		dst = append(dst, `{"base":`...)
		dst = append(dst, spec...)
		dst = append(dst, `0}},"seeds":[`...)
		for i, s := range seeds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, s, 10)
		}
		return append(dst, `]}`...)
	case kindColfmt:
		dst = append(dst, spec...)
		dst = strconv.AppendInt(dst, seeds[0], 10)
		return append(dst, `},"trace":"colfmt"}`...)
	default:
		dst = append(dst, spec...)
		dst = strconv.AppendInt(dst, seeds[0], 10)
		return append(dst, `}}`...)
	}
}

// servedConfig is the library config the server runs for one seed.
func servedConfig(sys *taskmodel.System, seed int64) core.RunConfig {
	return core.RunConfig{
		System:     sys,
		Exec:       exectime.NewNoise(exectime.Nominal{}, scenario.ExecNoise, seed),
		Middleware: core.Config{Mode: core.ModeAutoE2E},
		Duration:   simtime.FromSeconds(serveRunS),
	}
}

// server is an in-process serve.Server behind a loopback HTTP listener,
// with the two client connections the load generator sends on.
type server struct {
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{}
	conns []*wireConn
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.NewServer(serve.Options{Workers: workers}), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		s.hs.Serve(ln)
		close(s.done)
	}()
	for k := 0; k < workers; k++ {
		c, err := dialWire(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial server: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// close closes the client connections, stops the listener, drains the
// batch runtime and waits for the serving goroutine to exit.
func (s *server) close() error {
	for _, c := range s.conns {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// counters reads the admission counters from GET /v1/metrics.
func (s *server) counters() (map[string]float64, error) {
	resp, body, err := s.conns[0].roundTrip("GET", "/v1/metrics", nil, make([]byte, 0, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.status)
	}
	out := map[string]float64{}
	inCounters := false
	for _, line := range strings.Split(string(body), "\n") {
		if line == "counter,value" {
			inCounters = true
			continue
		}
		if name, v, ok := strings.Cut(line, ","); ok && inCounters {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %v", line, err)
			}
			out[name] = f
		}
	}
	return out, nil
}

// wireTiming is the per-run timing block of a summary response.
type wireTiming struct {
	QueueWaitNs int64 `json:"queue_wait_ns"`
	BatchWaitNs int64 `json:"batch_wait_ns"`
	RunNs       int64 `json:"run_ns"`
	SerializeNs int64 `json:"serialize_ns"`
}

func (t wireTiming) total() int64 { return t.QueueWaitNs + t.BatchWaitNs + t.RunNs + t.SerializeNs }

type wireRun struct {
	Summary struct {
		MissRatio      float64             `json:"miss_ratio"`
		TotalPrecision float64             `json:"total_precision"`
		Counters       []sched.TaskCounter `json:"counters"`
	} `json:"summary"`
	Timing wireTiming `json:"timing_ns"`
}

// Negative record statuses mark requests that got no usable response.
const (
	statusTransport = -1 // not sent, or its response not read
	statusDecode    = -2 // the body did not decode
)

// record is what the load generator observed for one request. Records of
// the measured phase live off the heap, so a record holds no pointers.
type record struct {
	status  int32 // HTTP status, or statusTransport / statusDecode
	bodyLen int32
	bodyOff int64 // offset of the response body in the load's arena
	// waited marks a request that found both connections busy at its due
	// time; late is then not the generator's and is left out of its figure.
	waited bool
	late   float64    // ms the connection's sleep overran the due time
	lat    float64    // ms from scheduled send to last byte
	svc    float64    // µs from writing the request to its last byte
	timing wireTiming // colfmt responses: the X-Autoe2e-*-Ns headers
}

// load is one open-loop pass: the schedule, a record per request, and the
// arena the connections append response bodies to, split evenly between
// them. Bodies are decoded and checked only after the pass, so that work
// stays out of the measured phase.
type load struct {
	sch   schedule
	recs  []record
	arena []byte
	next  atomic.Int32 // the first request no connection has taken yet
	t0    time.Time    // start of the schedule
}

func newLoad(sch schedule, recs []record, arena []byte) *load {
	return &load{sch: sch, recs: recs, arena: arena}
}

// send issues request i on c, appends its response body to *dst and
// records the outcome. An error leaves the connection unusable.
func (ld *load) send(c *wireConn, i int32, base int, dst *[]byte) error {
	r := ld.sch.reqs[i]
	rec := &ld.recs[i]
	path := "/v1/run"
	if r.kind == kindSweep {
		path = "/v1/sweep"
	}
	c.req = appendBody(c.req[:0], r.kind, ld.sch.seeds[r.off:r.off+r.n])
	at := len(*dst)
	sent := time.Now()
	resp, body, err := c.roundTrip("POST", path, c.req, *dst)
	done := time.Now()
	if err != nil {
		rec.status = statusTransport
		*dst = (*dst)[:at]
		return err
	}
	*dst = body
	rec.status = int32(resp.status)
	rec.timing = resp.timing
	rec.bodyOff, rec.bodyLen = int64(base+at), int32(len(body)-at)
	rec.lat = ms(done.Sub(ld.t0.Add(r.due)))
	rec.svc = us(done.Sub(sent))
	return nil
}

// drive sends every scheduled request at its due time and waits for every
// response; it returns the pass's wall time. Each connection takes the
// next request in schedule order as soon as it is free and sleeps until
// that request is due, so a request that finds both connections busy
// waits for the first to free up. A load is driven once.
func drive(s *server, ld *load) (time.Duration, error) {
	per := len(ld.arena) / len(s.conns)
	errs := make([]error, len(s.conns))
	// The schedule starts a millisecond out, after the connections' loops.
	ld.t0 = time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for k, c := range s.conns {
		wg.Add(1)
		go func(k int, c *wireConn) {
			defer wg.Done()
			base := k * per
			dst := ld.arena[base:base:(base + per)]
			for {
				i := ld.next.Add(1) - 1
				if int(i) >= len(ld.sch.reqs) {
					return
				}
				if errs[k] != nil {
					ld.recs[i].status = statusTransport
					continue
				}
				// The connection sleeps itself, with nanosleep: a hand-off from
				// a separate dispatcher adds a thread wake-up to every request,
				// and the runtime timer wakes a sleeper with up to a
				// millisecond of slack.
				due := ld.t0.Add(ld.sch.reqs[i].due)
				if d := time.Until(due); d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					syscall.Nanosleep(&ts, nil)
					ld.recs[i].late = ms(time.Since(due))
				} else {
					ld.recs[i].waited = true
				}
				errs[k] = ld.send(c, i, base, &dst)
			}
		}(k, c)
	}
	wg.Wait()
	wall := time.Since(ld.t0)
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// decoded is what the responses of a load said, read after the pass.
type decoded struct {
	hash   []uint64     // per run: summary hash, or trace hash for colfmt
	timing []wireTiming // per run: the server's stage timings
	http   []float64    // per single-run request: µs not covered by stages
}

// decode parses every 200 response body of ld; a body that does not
// decode marks its request statusDecode.
func (ld *load) decode() decoded {
	d := decoded{hash: make([]uint64, len(ld.sch.seeds)), timing: make([]wireTiming, len(ld.sch.seeds))}
	rec := trace.NewRecorder()
	var (
		one  wireRun
		many struct {
			Runs []wireRun `json:"runs"`
		}
		run *colfmt.Run
	)
	for i, r := range ld.sch.reqs {
		o := &ld.recs[i]
		if o.status != http.StatusOK {
			continue
		}
		body := ld.arena[o.bodyOff : o.bodyOff+int64(o.bodyLen)]
		switch r.kind {
		case kindSummary:
			one = wireRun{}
			if json.Unmarshal(body, &one) != nil {
				o.status = statusDecode
				continue
			}
			sm := one.Summary
			d.hash[r.off] = summaryHash(sm.MissRatio, sm.TotalPrecision, sm.Counters)
			d.timing[r.off] = one.Timing
			d.http = append(d.http, o.svc-float64(one.Timing.total())/1e3)
		case kindColfmt:
			rd, err := colfmt.NewReader(body)
			if err == nil && rd.NumRuns() != 1 {
				err = fmt.Errorf("%d runs", rd.NumRuns())
			}
			if err == nil {
				run, err = rd.RunInto(0, run)
			}
			if err == nil {
				err = run.DecodeInto(rec)
			}
			if err != nil {
				o.status = statusDecode
				continue
			}
			d.hash[r.off] = recorderHash(rec)
			d.timing[r.off] = o.timing
			d.http = append(d.http, o.svc-float64(o.timing.total())/1e3)
		case kindSweep:
			many.Runs = many.Runs[:0]
			if json.Unmarshal(body, &many) != nil || len(many.Runs) != int(r.n) {
				o.status = statusDecode
				continue
			}
			for k, run := range many.Runs {
				sm := run.Summary
				d.hash[int(r.off)+k] = summaryHash(sm.MissRatio, sm.TotalPrecision, sm.Counters)
				d.timing[int(r.off)+k] = run.Timing
			}
		}
	}
	return d
}

// warmup sends warmupRequests requests, a third of each kind with fixed
// seeds, closed-loop over the two connections, and returns the largest
// body seen for each kind.
func warmup(s *server) ([3]int, error) {
	var sch schedule
	for i := 0; i < warmupRequests; i++ {
		r := request{kind: reqKind(i % 3), off: int32(len(sch.seeds)), n: 1}
		if r.kind == kindSweep {
			r.n = sweepRuns
		}
		for k := int32(0); k < r.n; k++ {
			sch.seeds = append(sch.seeds, int64(len(sch.seeds)+1))
		}
		sch.reqs = append(sch.reqs, r)
	}
	ld := newLoad(sch, make([]record, len(sch.reqs)), make([]byte, workers<<20))
	var largest [3]int
	if _, err := drive(s, ld); err != nil {
		return largest, fmt.Errorf("warm-up: %w", err)
	}
	for i, o := range ld.recs {
		if o.status != http.StatusOK {
			return largest, fmt.Errorf("warm-up request %d: status %d", i, o.status)
		}
		k := sch.reqs[i].kind
		largest[k] = max(largest[k], int(o.bodyLen))
	}
	return largest, nil
}

// serveOpen is an open loop against an in-process serve.Server on a
// loopback socket: seeded Poisson arrivals at serveRate over two client
// connections, 80% single 2 s testbed runs with summary JSON, 10% the same
// with a colfmt trace, 10% 8-seed sweeps. One operation is one request;
// lat_ms is measured from each request's scheduled send time to the last
// byte of its response, over every request of the run.
func serveOpen(b *bench) (err error) {
	var (
		s       *server
		largest [3]int
	)
	setup, err := medianSetup(b, func(last bool) error {
		var err error
		if s, err = startServer(); err != nil {
			return err
		}
		if largest, err = warmup(s); err != nil {
			s.close()
			return err
		}
		if !last {
			return s.close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	b.e2e["setup_s"] = setup

	// The schedule, the records and the body arena live off the heap, so
	// the live heap, the allocation count and the collector's pace in the
	// measured phase are the server's, not the load generator's.
	var mem offHeap
	defer mem.free()
	sch, err := newSchedule(b, b.seconds, &mem)
	if err != nil {
		return err
	}
	recs, err := offHeapSlice[record](&mem, len(sch.reqs))
	if err != nil {
		return err
	}
	// Each connection gets room for bodyRoom times the largest warm-up body
	// of every request's kind; untouched pages of the mapping cost nothing.
	room := 0
	for _, r := range sch.reqs {
		room += bodyRoom * largest[r.kind]
	}
	arena, err := offHeapSlice[byte](&mem, workers*room)
	if err != nil {
		return err
	}
	ld := newLoad(sch, recs, arena)
	before, err := s.counters()
	if err != nil {
		return err
	}
	ph := startPhase()
	wall, err := drive(s, ld)
	runs := int64(0)
	for i, r := range sch.reqs {
		if recs[i].status == http.StatusOK {
			runs += int64(r.n)
		}
	}
	ph.finish(b, runs)
	if err != nil {
		b.note("a client connection failed: %v", err)
	}
	after, err := s.counters()
	if err != nil {
		return err
	}
	out := ld.decode()

	// Verification: every run of every request against the library result
	// for the same config, streamed through core.RunStream.
	sys := workload.Testbed()
	type libRun struct {
		hash uint64
		d    digest
		err  error
	}
	lib := make([]libRun, len(sch.seeds))
	kinds := make([]reqKind, len(sch.seeds))
	for _, r := range sch.reqs {
		for k := r.off; k < r.off+r.n; k++ {
			kinds[k] = r.kind
		}
	}
	execs := make([]countingExec, len(sch.seeds))
	chains := make([]int64, len(sch.seeds))
	k := 0
	next := func() (core.RunConfig, bool) {
		if k == len(sch.seeds) {
			return core.RunConfig{}, false
		}
		cfg := servedConfig(sys, sch.seeds[k])
		execs[k].inner = cfg.Exec
		cfg.Exec = &execs[k]
		n := &chains[k]
		cfg.OnChain = func(sched.ChainEvent) { *n++ }
		k++
		return cfg, true
	}
	core.RunStream(next, workers, func(i int, res *core.RunResult, err error) {
		if err != nil {
			lib[i].err = err
			return
		}
		if kinds[i] == kindColfmt {
			lib[i].hash = recorderHash(res.Trace)
		} else {
			lib[i].hash = summaryHash(res.OverallMissRatio(), res.State.TotalPrecision(), res.Counters)
		}
		c := countsOf(res)
		lib[i].d = digest{runs: 1, jobs: execs[i].jobs, chains: chains[i], misses: c.missed,
			precision: res.State.TotalPrecision(), samples: c.samples}
	})
	if b.corrupt {
		out.hash[0]++
	}
	var okSLO int64
	lat := make([]float64, 0, len(sch.reqs))
	for i, r := range sch.reqs {
		b.attempted++
		st := recs[i].status
		if st != http.StatusOK {
			b.fail("serve-open: request %d: status %d", i, st)
			continue
		}
		lat = append(lat, recs[i].lat)
		bad := false
		for k := r.off; k < r.off+r.n; k++ {
			if lib[k].err != nil || lib[k].hash != out.hash[k] {
				bad = true
			}
		}
		if bad {
			b.fail("serve-open: request %d: response differs from the library result", i)
			continue
		}
		if recs[i].lat <= ms(serveSLO) {
			okSLO++
		}
	}
	// The digest covers the runs of the first digestRequests requests,
	// which are the same for every --seconds long enough to schedule them.
	nd := len(sch.seeds)
	if len(sch.reqs) > digestRequests {
		nd = int(sch.reqs[digestRequests].off)
	}
	for _, r := range lib[:nd] {
		b.digest.add(r.d)
	}

	b.e2e["lat_ms.p50"] = quantile(lat, 0.5)
	b.e2e["lat_ms.p95"] = quantile(lat, 0.95)
	b.note("%d requests (%d runs) offered over %.0f s; lat_ms over %d responses, %d beyond p95; lat_ms.p99 %.4g",
		len(sch.reqs), len(sch.seeds), b.seconds, len(lat), len(lat)/20, quantile(lat, 0.99))
	b.note("slo_ok_ratio %.4f (200 within %v of due time)", float64(okSLO)/float64(len(sch.reqs)), serveSLO)

	if b.traced {
		late := make([]float64, 0, len(recs))
		for i := range recs {
			if !recs[i].waited {
				late = append(late, recs[i].late)
			}
		}
		b.layer["slo_ok_ratio"] = float64(okSLO) / float64(len(sch.reqs))
		b.layer["loadgen.late_ms.p99"] = quantile(late, 0.99)
		b.layer["loadgen.offered_rps"] = float64(len(sch.reqs)) / b.seconds
		var q, bw, run, ser []float64
		var busy float64
		for _, t := range out.timing {
			q = append(q, float64(t.QueueWaitNs)/1e3)
			bw = append(bw, float64(t.BatchWaitNs)/1e3)
			run = append(run, float64(t.RunNs)/1e3)
			ser = append(ser, float64(t.SerializeNs)/1e3)
			busy += float64(t.RunNs) / 1e9
		}
		for name, xs := range map[string][]float64{"queue_wait": q, "batch_wait": bw, "run": run, "serialize": ser} {
			b.layer["serve."+name+"_us.p50"] = quantile(xs, 0.5)
			b.layer["serve."+name+"_us.p99"] = quantile(xs, 0.99)
		}
		b.layer["serve.http_us.p50"] = quantile(out.http, 0.5)
		b.layer["parallel.busy_ratio"] = busy / (workers * wall.Seconds())
		accepted := after["accepted"] - before["accepted"]
		refused := after["rejected_429"] + after["unavailable_503"] - before["rejected_429"] - before["unavailable_503"]
		b.layer["serve.accepted"] = accepted
		b.layer["serve.completed"] = after["completed"] - before["completed"]
		b.layer["serve.reject_ratio"] = refused / max(accepted+refused, 1)

		mk := func(i int) core.RunConfig { return servedConfig(sys, sch.seeds[i%len(sch.seeds)]) }
		extend := func() core.RunConfig {
			cfg := servedConfig(sys, sch.seeds[0])
			cfg.Duration = 20 * simtime.Second
			return cfg
		}
		layerReplay(b, min(1000, len(sch.seeds)), mk, extend)
	}
	return nil
}
