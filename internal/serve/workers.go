package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
)

// Options tunes the batch runtime. The zero value of every field selects
// its default.
type Options struct {
	// Workers is the number of session workers (default parallel.Workers(),
	// i.e. GOMAXPROCS). Each worker owns warm core.Sessions keyed by
	// workload shape and runs one admitted run at a time.
	Workers int
	// QueueDepth bounds admission: the hard cap on admitted runs that no
	// worker has picked up yet (default 64×Workers). Beyond it the server
	// answers 429 + Retry-After — backpressure is explicit, memory is
	// bounded.
	QueueDepth int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = parallel.Workers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64 * o.Workers
	}
	return o
}

// maxWorkerSessions caps each worker's warm-session table. Past it the
// worker drops an arbitrary session before building a new one, so a client
// cycling synthetic specs cannot grow server memory without bound.
const maxWorkerSessions = 32

// nominalModel is the shared noise-free execution model. Hoisted so the
// hot path assigns a prebuilt interface value instead of converting
// (escape analysis charges the conversion to the converting frame).
var nominalModel exectime.Model = exectime.Nominal{}

// group is one request in flight: res.runs ≥ 1 runs of one resolved spec
// that differ only in their noise seed — a single run is a group of one.
// Its runs ride the queue as res.runs sends of the same pointer; each
// worker that takes one claims the next index. Groups are pooled: the
// caller of submit frames the response from runs once the worker
// finishing the last run has signalled done, then returns the group.
type group struct {
	res      resolved
	runs     []result
	tEnqueue time.Time

	next      atomic.Int32  // index the next worker to take this group claims
	remaining atomic.Int32  // runs not yet finished
	done      chan struct{} // cap 1; signalled once, by the last run's worker
}

// result is one run's response, written by the worker that ran it and read
// by the group's caller after done.
type result struct {
	buf    []byte // the run's JSON object or colfmt run, without file magic
	errMsg string // non-empty when the run failed (the request answers 500)
	timing Timing
}

// Server is the batch runtime: a bounded admission queue drained by
// work-conserving session workers — each free worker takes the oldest
// admitted run straight off the queue, so no run waits while a worker
// idles and a sweep's runs spread over every free worker. Every request,
// from the HTTP handlers (server.go) or the in-process Execute path the
// benchmarks drive, goes through one admission call (submit) and one
// completion signal (the group's done).
type Server struct {
	opts    Options
	metrics Registry

	// used counts admission reservations (admitted runs not yet picked up
	// by a worker); it is CASed against QueueDepth so admit sends never
	// block once a reservation is held.
	used  atomic.Int64
	admit chan *group

	// drainMu serializes admission against shutdown: submit holds the
	// read side across the reservation + sends, Shutdown takes the write
	// side to flip draining and close admit exactly once.
	drainMu  sync.RWMutex
	draining bool

	// sessions[i] is worker i's warm-session table, keyed by shape and
	// touched only by that worker while it runs.
	sessions []map[shapeKey]*core.Session

	wg     sync.WaitGroup
	groups sync.Pool
}

// NewServer starts the batch runtime: opts.Workers session workers. Stop
// it with Shutdown (drains) or Close.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		admit:    make(chan *group, opts.QueueDepth),
		sessions: make([]map[shapeKey]*core.Session, opts.Workers),
	}
	s.groups.New = func() any {
		return &group{done: make(chan struct{}, 1)}
	}
	s.wg.Add(opts.Workers)
	for i := range s.sessions {
		s.sessions[i] = make(map[shapeKey]*core.Session)
		go s.worker(s.sessions[i])
	}
	return s
}

// Metrics exposes the server's aggregate registry.
func (s *Server) Metrics() *Registry { return &s.metrics }

// getGroup checks a group for res out of the pool, with res.runs reset
// result slots whose buffers keep their backing arrays.
func (s *Server) getGroup(res *resolved) *group {
	g := s.groups.Get().(*group)
	g.res = *res
	if cap(g.runs) < res.runs {
		g.runs = make([]result, res.runs)
	}
	g.runs = g.runs[:res.runs]
	for i := range g.runs {
		r := &g.runs[i]
		r.buf = r.buf[:0]
		r.errMsg = ""
		r.timing = Timing{}
	}
	g.next.Store(0)
	return g
}

// tryReserve claims n admission slots, all or nothing.
func (s *Server) tryReserve(n int64) bool {
	for {
		used := s.used.Load()
		if used+n > int64(s.opts.QueueDepth) {
			return false
		}
		if s.used.CompareAndSwap(used, used+n) {
			return true
		}
	}
}

// retryAfterS estimates how long a rejected client should back off: the
// queue's current occupancy times the smoothed per-run wall time, spread
// over the workers, clamped to [1s, 60s].
func (s *Server) retryAfterS() int {
	ewma := s.metrics.runEWMA.Load()
	if ewma <= 0 {
		return 1
	}
	ns := s.used.Load() * ewma / int64(s.opts.Workers)
	sec := int(ns / 1e9)
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return sec
}

// submit is the one admission gate: it reserves a queue slot for every run
// of g, all or nothing — a half-admitted group would never finish — queues
// them and waits until the last one is done. A refused group comes back
// with its wire status (503 while draining, 429 when the queue is full),
// the Retry-After hint and the error message; status 0 means every run is
// done and g.runs holds the results.
func (s *Server) submit(g *group) (status, retryAfterS int, msg string) {
	n := len(g.runs)
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.metrics.unavail.Add(1)
		return http.StatusServiceUnavailable, 1, "server is draining"
	}
	if !s.tryReserve(int64(n)) {
		s.drainMu.RUnlock()
		s.metrics.rejected.Add(1)
		return http.StatusTooManyRequests, s.retryAfterS(), "admission queue full"
	}
	g.remaining.Store(int32(n))
	g.tEnqueue = time.Now()
	s.metrics.accepted.Add(uint64(n))
	for range n {
		s.admit <- g // cannot block: a reservation is held for each slot
	}
	s.drainMu.RUnlock()
	<-g.done
	return 0, 0, ""
}

// worker takes admitted runs off the queue, oldest first, the moment it is
// free. It owns one warm core.Session per workload shape and one reusable
// noise model, so a warm request runs with the session's zero-allocation
// steady state and serializes into the run's recycled buffer. A run that
// panics leaves its session torn, so the worker drops it; the next request
// of that shape rebuilds.
func (s *Server) worker(sessions map[shapeKey]*core.Session) {
	defer s.wg.Done()
	noise := exectime.NewNoise(exectime.Nominal{}, 0, 0)
	for g := range s.admit {
		s.used.Add(-1)
		s.serveOne(sessions, noise, g)
	}
}

// serveOne claims and runs one of g's runs: session lookup, simulate,
// serialize, record metrics, and — for the group's last run — signal done.
// A run that panicked leaves its session torn, so it is dropped from
// sessions. The group must not be touched after its remaining count is
// dropped: another worker's last run may hand it back to its caller.
//
// serveOne is deliberately NOT an effects //lint:certify root: the session
// warm path it rides is certified at its own roots (core.runWarm /
// core.execute), but a shape miss legitimately routes through the
// allocating rebuild path, so a transitive noalloc contract here would be
// a lie. The serve layer's own guarantees are pinned instead by the
// //lint:certify noalloc roots on its serializers (appendSummary,
// appendTiming) and on Registry.observe, and by the steady-state
// allocation gate in serve_test.go.
func (s *Server) serveOne(sessions map[shapeKey]*core.Session, noise *exectime.Noise, g *group) {
	pickup := time.Now()
	i := int(g.next.Add(1)) - 1
	r := &g.runs[i]
	r.timing.QueueWaitNs = pickup.Sub(g.tEnqueue).Nanoseconds()
	sess := sessions[g.res.shape]
	if sess == nil {
		if len(sessions) >= maxWorkerSessions {
			for k := range sessions {
				delete(sessions, k)
				break
			}
		}
		sess = core.NewSession()
		sessions[g.res.shape] = sess
	}
	if !s.runGuarded(sess, noise, &g.res, i, r, pickup) {
		delete(sessions, g.res.shape)
	}
	s.metrics.observe(r.timing)
	s.metrics.completed.Add(1)
	if g.remaining.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// runGuarded is serveOne's simulate + serialize step for run i of res
// behind a panic barrier: a panic anywhere in it (the test hook, the run,
// the encoders) fails this one run, is counted, and reports false instead
// of taking the process down.
func (s *Server) runGuarded(sess *core.Session, noise *exectime.Noise, res *resolved, i int, r *result, pickup time.Time) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.errMsg = fmt.Sprint("run panicked: ", p)
			s.metrics.panics.Add(1)
			ok = false
		}
	}()
	if res.hook != nil {
		res.hook()
	}
	start := time.Now()
	r.timing.BatchWaitNs = start.Sub(pickup).Nanoseconds()

	exec := nominalModel
	if res.noiseOn {
		noise.Reseed(res.noise.Spread, res.seed(i))
		exec = noise
	}
	out, err := sess.Run(core.RunConfig{
		System:     res.sys,
		Exec:       exec,
		Middleware: core.Config{Mode: res.mode},
		Duration:   res.duration,
	})
	tRun := time.Now()
	r.timing.RunNs = tRun.Sub(start).Nanoseconds()

	if err != nil {
		r.errMsg = err.Error()
		s.metrics.runErrors.Add(1)
		return true
	}
	if res.colfmt {
		r.buf = colfmt.AppendRun(r.buf, out.Trace)
		r.timing.SerializeNs = time.Since(tRun).Nanoseconds()
		return true
	}
	r.buf = append(r.buf, `{"summary":`...)
	r.buf = appendSummary(r.buf, res.mode, res.durationS, out)
	// SerializeNs covers the summary encode; the timing block that reports
	// it is appended after the clock is read.
	r.timing.SerializeNs = time.Since(tRun).Nanoseconds()
	r.buf = append(r.buf, `,"timing_ns":`...)
	r.buf = appendTiming(r.buf, r.timing)
	r.buf = append(r.buf, '}')
	return true
}

// Shutdown stops admission (new requests get 503) and drains: every
// accepted request runs to completion and its waiter is signalled before
// Shutdown returns. The context bounds the wait; on expiry workers keep
// draining in the background but Shutdown reports ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.admit)
	}
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// Response is the caller-owned result slot of the in-process Execute path.
// Body is recycled across calls; Status and Body are what the HTTP handler
// would answer.
type Response struct {
	Status int
	Body   []byte
	Timing Timing
}

// Execute runs one spec through the same admission + worker + session
// pipeline as POST /v1/run, without HTTP framing: the alloc-gate tests and
// the serve benchmark drive this to measure the runtime itself. resp is
// reused — Body keeps its backing array across calls.
func (s *Server) Execute(spec *RunSpec, resp *Response) {
	resp.Timing = Timing{}
	res, err := resolve(spec)
	if err != nil {
		resp.Status = http.StatusBadRequest
		resp.Body = appendError(resp.Body[:0], err.Error(), 0)
		return
	}
	g := s.getGroup(&res)
	defer s.groups.Put(g)
	if status, retryAfterS, msg := s.submit(g); status != 0 {
		resp.Status = status
		resp.Body = appendError(resp.Body[:0], msg, retryAfterS)
		return
	}
	resp.Timing = g.runs[0].timing
	if msg := g.failure(); msg != "" {
		resp.Status = http.StatusInternalServerError
		resp.Body = appendError(resp.Body[:0], msg, 0)
		return
	}
	resp.Status = http.StatusOK
	resp.Body = resp.Body[:0]
	g.writeBody((*appendWriter)(&resp.Body))
}

// appendWriter is an io.Writer that appends to a caller-owned buffer.
type appendWriter []byte

func (b *appendWriter) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
