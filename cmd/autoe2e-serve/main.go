// Command autoe2e-serve runs the simulation-as-a-service server: an
// HTTP/JSON front end over the zero-allocation session runtime. Each free
// worker takes the oldest admitted run off the queue onto its warm
// session, admission is bounded with explicit 429 backpressure, and
// SIGINT/SIGTERM drains every accepted request before exit.
//
// Usage:
//
//	autoe2e-serve [-addr :8080] [-workers N] [-queue N] [-drain 30s]
//
// Endpoints:
//
//	POST /v1/run     {"workload":{"name":"testbed"},"duration_s":0.2}
//	POST /v1/sweep   {"base":{...,"noise":{"spread":0.1}},"count":32}
//	GET  /v1/metrics per-stage latency percentiles + counters, CSV
//	GET  /v1/healthz liveness
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/autoe2e/autoe2e/internal/serve"
)

// Connection timeouts. Request bodies are small specs (at most 1 MiB), so
// a client that cannot send one within readTimeout is stalled, not slow.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autoe2e-serve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "session workers (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (default 64*workers)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	flag.Parse()

	srv := serve.NewServer(serve.Options{Workers: *workers, QueueDepth: *queue})
	// WriteTimeout stays unset: a legal 4096-run sweep can take minutes to
	// compute before its first byte, and no per-request cost cap bounds
	// that yet.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%v: draining", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the batch runtime so
	// every request a handler admitted gets its response written.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Print("drained")
}
