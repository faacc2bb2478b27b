// Package parallel provides the bounded worker pool used by the control
// plane and the figure harness for embarrassingly-parallel work: the
// decentralized per-task inner solves and the independent scenario runs of
// the figure/ablation sweeps.
//
// Determinism contract. The pool must never change results, only wall-clock
// time. Three rules enforce that:
//
//  1. fn(i) is a pure function of the index and of state that is read-only
//     for the duration of the pool call; it writes only to index-i slots of
//     caller-owned result storage.
//  2. Results are merged in index order by the caller (Map already returns
//     them that way), so downstream output is byte-identical to a serial
//     run regardless of completion order.
//  3. Anything order-sensitive — applying control moves to shared state,
//     printing, writing files, drawing from a simtime.Rand stream — happens
//     outside the pool, after it returns.
//
// Under these rules a run with workers == 1 and workers == N produce
// identical bytes; the figure-harness tests pin exactly that.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the default pool width: one worker per available CPU.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForEach invokes fn(i) for every i in [0, n), spreading calls over at most
// `workers` goroutines (workers <= 1 runs serially in the calling
// goroutine). It returns when every call has finished. Indices are handed
// out atomically, exactly once each.
//
// If any fn panics, ForEach re-panics in the calling goroutine with the
// first recovered value after all workers have drained — a panic is never
// lost and never crashes the process from a worker goroutine.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i) //lint:hookpoint worker bodies carry their callers' contracts; parsafe certifies internal/parallel worker closures separately
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked {
						panicked, panicVal = true, r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i) //lint:hookpoint worker bodies carry their callers' contracts; parsafe certifies internal/parallel worker closures separately
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal) //lint:allow effects re-raises a worker panic on the caller goroutine; ForEach adds no failure mode of its own
	}
}

// Map invokes fn(i) for every i in [0, n) on at most `workers` goroutines
// and returns the results in index order. fn must follow the package's
// determinism contract.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}
