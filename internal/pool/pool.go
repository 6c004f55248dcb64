// Package pool provides the bounded worker-pool primitive shared by the
// public sweep engine (leqa.Runner) and the experiments harness, so the
// fan-out/feed/drain skeleton exists exactly once.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) across a bounded worker pool
// and returns the lowest-index error recorded. Callers store per-index
// results themselves, so output order never depends on scheduling.
// workers ≤ 0 selects GOMAXPROCS.
//
// With stopOnErr, the feed stops after the first failure and already-queued
// indices are drained without running, so one bad item cannot cost the full
// batch; fn is then not called for every index. Without it, fn runs for all
// n indices regardless of failures — the mode batch engines use to keep
// every result slot accounted for.
func ForEach(n, workers int, stopOnErr bool, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stopOnErr && failed.Load() {
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if stopOnErr && failed.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// indexed pairs a result with the input index it belongs to, so the
// collector can reorder out-of-order completions.
type indexed[T any] struct {
	i int
	v T
}

// ForEachOrdered runs fn(i) for every index i of order across a bounded
// worker pool and hands each result to emit in strict index order, as soon
// as the contiguous prefix through that index has completed — the primitive
// behind the streaming sweep engines: result 0 is emitted while later
// indices are still computing. order is a permutation of [0, len(order))
// and sets the order in which indices start: a caller that knows which
// items run longest starts them first, so the pool does not end on one
// long item while the other workers idle, and emission order does not
// change. emit runs on the caller's goroutine, so it may safely write to
// non-thread-safe sinks (an http.ResponseWriter, a bufio.Writer). A non-nil
// emit error stops the feed — fn is then not called for indices not yet
// started — and is returned after in-flight work drains, so no worker
// goroutine outlives the call. workers ≤ 0 selects GOMAXPROCS.
func ForEachOrdered[T any](order []int, workers int, fn func(i int) T, emit func(v T) error) error {
	n := len(order)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	// The result buffer lets every worker park one finished item without
	// blocking, so a slow emit (a throttled network client) stalls — but
	// never deadlocks — the pool.
	results := make(chan indexed[T], workers)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- indexed[T]{i: i, v: fn(i)}
			}
		}()
	}
	go func() {
		for _, i := range order {
			if stopped.Load() {
				break
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	var emitErr error
	pending := make(map[int]T, workers)
	next := 0
	for r := range results {
		if emitErr != nil {
			continue // drain so the feeder and workers can exit
		}
		pending[r.i] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := emit(v); err != nil {
				emitErr = err
				stopped.Store(true)
				break
			}
			next++
		}
	}
	return emitErr
}
