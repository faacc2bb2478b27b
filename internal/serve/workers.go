package serve

import (
	"context"
	"errors"
	"fmt"
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

// sweepParent fans a sweep request into per-seed pendings and joins them:
// the worker finishing the last child signals done exactly once.
type sweepParent struct {
	children  []*pending
	remaining atomic.Int32
	done      chan struct{}
}

// pending is one admitted run riding through the queue. It is pooled: the
// handler that enqueued it waits on done, consumes buf, and returns it to
// the pool. Workers never touch a pending after signalling it.
type pending struct {
	// resolved request (immutable after enqueue)
	res        resolved
	standalone bool // colfmt body carries its own file magic (single runs)

	// response (written by the worker, read by the handler after done)
	buf    []byte
	status int
	errMsg string
	timing Timing

	// lifecycle
	tEnqueue time.Time
	tPickup  time.Time
	done     chan struct{} // cap 1; unused when parent is set
	parent   *sweepParent
}

// Server is the batch runtime: a bounded admission queue drained by
// work-conserving session workers — each free worker takes the oldest
// admitted run straight off the queue, so no run waits while a worker
// idles and a sweep's children spread over every free worker. It serves
// both the HTTP handlers (server.go) and the in-process Execute path the
// benchmarks drive.
type Server struct {
	opts    Options
	metrics Registry

	// used counts admission reservations (admitted runs not yet picked up
	// by a worker); it is CASed against QueueDepth so admit sends never
	// block once a reservation is held.
	used  atomic.Int64
	admit chan *pending

	// drainMu serializes admission against shutdown: enqueue holds the
	// read side across the reservation + send, Shutdown takes the write
	// side to flip draining and close admit exactly once.
	drainMu  sync.RWMutex
	draining bool

	// sessions[i] is worker i's warm-session table, keyed by shape and
	// touched only by that worker while it runs.
	sessions []map[shapeKey]*core.Session

	wg          sync.WaitGroup
	pendingPool sync.Pool
}

// NewServer starts the batch runtime: opts.Workers session workers. Stop
// it with Shutdown (drains) or Close.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		admit:    make(chan *pending, opts.QueueDepth),
		sessions: make([]map[shapeKey]*core.Session, opts.Workers),
	}
	s.pendingPool.New = func() any {
		return &pending{done: make(chan struct{}, 1)}
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

// getPending checks a reset pending out of the pool.
func (s *Server) getPending() *pending {
	p := s.pendingPool.Get().(*pending)
	p.res = resolved{}
	p.standalone = false
	p.buf = p.buf[:0]
	p.status = 0
	p.errMsg = ""
	p.timing = Timing{}
	p.parent = nil
	return p
}

// putPending returns a consumed pending; the caller must be done with buf.
func (s *Server) putPending(p *pending) {
	s.pendingPool.Put(p)
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

// enqueue errors classify admission failures onto HTTP statuses.
var (
	errQueueFull = errors.New("serve: admission queue full")
	errDraining  = errors.New("serve: server is draining")
)

// enqueue admits one pending (reservation + queue send) or reports why it
// cannot. On success the workers own p until one signals done.
func (s *Server) enqueue(p *pending) error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.metrics.unavail.Add(1)
		return errDraining
	}
	if !s.tryReserve(1) {
		s.metrics.rejected.Add(1)
		return errQueueFull
	}
	p.tEnqueue = time.Now()
	s.metrics.accepted.Add(1)
	s.admit <- p // cannot block: a reservation is held for this slot
	return nil
}

// enqueueSweep admits a whole sweep atomically: either every child gets a
// queue slot or none do — a half-admitted sweep would deadlock its handler.
func (s *Server) enqueueSweep(parent *sweepParent) error {
	n := len(parent.children)
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.metrics.unavail.Add(1)
		return errDraining
	}
	if !s.tryReserve(int64(n)) {
		s.metrics.rejected.Add(1)
		return errQueueFull
	}
	parent.remaining.Store(int32(n))
	now := time.Now()
	s.metrics.accepted.Add(uint64(n))
	for _, p := range parent.children {
		p.tEnqueue = now
		s.admit <- p
	}
	return nil
}

// worker takes admitted runs off the queue, oldest first, the moment it is
// free. It owns one warm core.Session per workload shape and one reusable
// noise model, so a warm request runs with the session's zero-allocation
// steady state and serializes into the pending's recycled buffer. A run
// that panics leaves its session torn, so the worker drops it; the next
// request of that shape rebuilds.
func (s *Server) worker(sessions map[shapeKey]*core.Session) {
	defer s.wg.Done()
	noise := exectime.NewNoise(exectime.Nominal{}, 0, 0)
	for p := range s.admit {
		s.used.Add(-1)
		p.tPickup = time.Now()
		p.timing.QueueWaitNs = p.tPickup.Sub(p.tEnqueue).Nanoseconds()
		shape := p.res.shape // p belongs to its handler once serveOne signals
		sess := sessions[shape]
		if sess == nil {
			if len(sessions) >= maxWorkerSessions {
				for k := range sessions {
					delete(sessions, k)
					break
				}
			}
			sess = core.NewSession()
			sessions[shape] = sess
		}
		if !s.serveOne(sess, noise, p) {
			delete(sessions, shape)
		}
	}
}

// serveOne runs one pending to completion: simulate, serialize, record
// metrics, signal the waiter. The pending must not be touched afterwards —
// signalling transfers ownership back to the handler. It reports false
// when the run panicked, in which case sess is torn and must be dropped.
//
// serveOne is deliberately NOT an effects //lint:certify root: the session
// warm path it rides is certified at its own roots (core.runWarm /
// core.execute), but a shape miss legitimately routes through the
// allocating rebuild path, so a transitive noalloc contract here would be
// a lie. The serve layer's own guarantees are pinned instead by the
// per-function //lint:noalloc markers on its serialize/metrics leaves
// (escape-replay verified), the //lint:certify root on Registry.observe,
// and the steady-state allocation gate in serve_test.go.
func (s *Server) serveOne(sess *core.Session, noise *exectime.Noise, p *pending) bool {
	ok := s.runGuarded(sess, noise, p)
	s.metrics.observe(p.timing)
	s.metrics.completed.Add(1)
	if p.parent != nil {
		if p.parent.remaining.Add(-1) == 0 {
			p.parent.done <- struct{}{}
		}
		return ok
	}
	p.done <- struct{}{}
	return ok
}

// runGuarded is serveOne's simulate + serialize step behind a panic
// barrier: a panic anywhere in it (the test hook, the run, the encoders)
// answers this one request 500, is counted, and reports false instead of
// taking the process down.
func (s *Server) runGuarded(sess *core.Session, noise *exectime.Noise, p *pending) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.status = 500
			p.errMsg = fmt.Sprint("run panicked: ", r)
			p.buf = appendError(p.buf[:0], p.errMsg, 0)
			s.metrics.panics.Add(1)
			ok = false
		}
	}()
	if p.res.hook != nil {
		p.res.hook()
	}
	start := time.Now()
	p.timing.BatchWaitNs = start.Sub(p.tPickup).Nanoseconds()

	exec := nominalModel
	if p.res.noiseOn {
		noise.Reseed(p.res.noise.Spread, p.res.noise.Seed)
		exec = noise
	}
	res, err := sess.Run(core.RunConfig{
		System:     p.res.sys,
		Exec:       exec,
		Middleware: core.Config{Mode: p.res.mode},
		Duration:   p.res.duration,
	})
	tRun := time.Now()
	p.timing.RunNs = tRun.Sub(start).Nanoseconds()

	if err != nil {
		p.status = 500
		p.errMsg = err.Error()
		p.buf = appendError(p.buf[:0], p.errMsg, 0)
		s.metrics.runErrors.Add(1)
		return true
	}
	p.status = 200
	p.buf = p.buf[:0]
	if p.res.colfmt {
		if p.standalone {
			p.buf = colfmt.AppendMagic(p.buf)
		}
		p.buf = colfmt.AppendRun(p.buf, res.Trace)
		p.timing.SerializeNs = time.Since(tRun).Nanoseconds()
		return true
	}
	p.buf = append(p.buf, `{"summary":`...)
	p.buf = appendSummary(p.buf, p.res.mode, p.res.durationS, res)
	// SerializeNs covers the summary encode; the timing block that reports
	// it is appended after the clock is read.
	p.timing.SerializeNs = time.Since(tRun).Nanoseconds()
	p.buf = append(p.buf, `,"timing_ns":`...)
	p.buf = appendTiming(p.buf, p.timing)
	p.buf = append(p.buf, '}')
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
// Body is recycled across calls; Status mirrors the HTTP handler's code.
type Response struct {
	Status int
	Body   []byte
	Timing Timing
}

// Execute runs one spec through the full admission + worker + session
// pipeline without HTTP framing: the alloc-gate tests and the serve
// benchmark drive this to measure the runtime itself. resp is reused —
// Body keeps its backing array across calls.
func (s *Server) Execute(spec *RunSpec, resp *Response) {
	r, err := resolve(spec)
	if err != nil {
		resp.Status = 400
		resp.Body = appendError(resp.Body[:0], err.Error(), 0)
		resp.Timing = Timing{}
		return
	}
	p := s.getPending()
	p.res = r
	p.standalone = true
	if err := s.enqueue(p); err != nil {
		s.putPending(p)
		if errors.Is(err, errDraining) {
			resp.Status = 503
			resp.Body = appendError(resp.Body[:0], err.Error(), 0)
		} else {
			resp.Status = 429
			resp.Body = appendError(resp.Body[:0], err.Error(), s.retryAfterS())
		}
		resp.Timing = Timing{}
		return
	}
	<-p.done
	resp.Status = p.status
	resp.Body = append(resp.Body[:0], p.buf...)
	resp.Timing = p.timing
	s.putPending(p)
}
