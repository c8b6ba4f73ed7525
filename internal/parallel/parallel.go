// Package parallel provides the bounded worker-pool runner under every
// concurrent stage of the scheduled-routing pipeline: the period ×
// placement grid (schedule.Sweep), the Pareto explorer's bisections,
// the repair fan-outs, and any other embarrassingly parallel loop.
//
// The runner is deliberately deterministic from the caller's point of
// view: work items are identified by index, results land in ordered
// slots, and errors are reported in index order — so a parallel run is
// byte-identical to a serial one regardless of goroutine interleaving.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values below 1 select
// GOMAXPROCS, the default degree of parallelism.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines. Work is claimed by index from a shared counter, so slot i
// always corresponds to item i and callers can write results into
// pre-sized slices without synchronization.
//
// All errors are collected and joined in index order, making failure
// output independent of scheduling. When ctx is cancelled, no new items
// are started and the context error is included in the result.
// workers <= 1 (or n <= 1) degenerates to a plain serial loop on the
// calling goroutine.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						errs[i] = err
						return
					}
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. On error the partial results
// are returned alongside the joined, index-ordered errors.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
