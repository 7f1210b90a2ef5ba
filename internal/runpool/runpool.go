// Package runpool provides a bounded worker pool for fanning independent
// simulation runs out across CPU cores.
//
// The pool is built for the repo's evaluation workloads: every
// (policy x market set x seed) cell is an independent, deterministic,
// single-threaded simulation, so the only way to use more than one core is
// to run many cells at once. The pool guarantees that parallel execution
// is observationally identical to serial execution:
//
//   - results are collected in submission order, regardless of the order
//     tasks finish in;
//   - the error returned by Wait is the error of the lowest-submitted
//     failing task (not whichever task happened to fail first on the
//     clock), so error propagation is deterministic too;
//   - a panic inside a task is recovered and surfaced as a *PanicError
//     rather than tearing down the process from a worker goroutine.
//
// Tasks must be independent: they may not communicate with each other and
// must not share mutable state (shared immutable state, such as a cached
// market universe, is fine).
package runpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// DefaultWorkers is the worker count used when a caller passes a
// non-positive count: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError wraps a panic recovered from a pool task.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

// Error describes the recovered panic.
func (p *PanicError) Error() string {
	return fmt.Sprintf("runpool: task panicked: %v\n%s", p.Value, p.Stack)
}

// Pool runs submitted tasks with at most `workers` in flight at once and
// collects their results in submission order. The zero value is not
// usable; construct with New. A Pool is single-use: Submit tasks, then
// call Wait exactly once.
type Pool[R any] struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu      sync.Mutex
	results []R
	errs    []error
	waited  bool
}

// New returns a pool that keeps at most workers tasks in flight. A
// non-positive count means DefaultWorkers.
func New[R any](workers int) *Pool[R] {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool[R]{sem: make(chan struct{}, workers)}
}

// Submit queues fn for execution. Tasks begin running as workers free up;
// Submit itself never blocks on task execution. Submitting after Wait
// panics: the result slices have already been handed to the caller.
func (p *Pool[R]) Submit(fn func() (R, error)) {
	p.mu.Lock()
	if p.waited {
		p.mu.Unlock()
		panic("runpool: Submit after Wait")
	}
	idx := len(p.results)
	var zero R
	p.results = append(p.results, zero)
	p.errs = append(p.errs, nil)
	p.mu.Unlock()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		defer func() {
			if v := recover(); v != nil {
				var zero R
				p.set(idx, zero, &PanicError{Value: v, Stack: debug.Stack()})
			}
		}()
		r, err := fn()
		p.set(idx, r, err)
	}()
}

func (p *Pool[R]) set(idx int, r R, err error) {
	p.mu.Lock()
	p.results[idx] = r
	p.errs[idx] = err
	p.mu.Unlock()
}

// Wait blocks until every submitted task has finished and returns their
// results in submission order. When tasks failed, Wait returns the error
// of the lowest-submitted failure alongside the (partially meaningful)
// results.
func (p *Pool[R]) Wait() ([]R, error) {
	p.wg.Wait()
	p.mu.Lock()
	p.waited = true
	results, errs := p.results, p.errs
	p.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Map runs fn over every item with at most workers tasks in flight
// (workers <= 0 means DefaultWorkers) and returns the results in item
// order. On failure it returns the error of the lowest-indexed failing
// item, making the error deterministic across worker counts. Every item
// runs to completion even after another item fails; use MapCtx when
// failures (or the caller) should abort remaining work.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	p := New[R](workers)
	for i, item := range items {
		p.Submit(func() (R, error) { return fn(i, item) })
	}
	return p.Wait()
}

// MapCtx is Map with cancellation: fn receives a context that is canceled
// as soon as any item fails, any item panics, or the caller's ctx is done.
// Items that have not started yet are then skipped (their slot reports the
// context's error), and a well-behaved fn — one that polls its context,
// like a sim.Engine run — returns early, so the first failure or a caller
// cancel drains the pool promptly instead of finishing the whole grid.
//
// With a background context and no failures, MapCtx is observationally
// identical to Map: same results, same order, at any worker count. On
// failure it prefers the lowest-indexed error that is not itself a
// cancellation (the root cause rather than collateral ctx.Err()s); when
// every recorded error is a cancellation it returns the caller context's
// error if set, else the lowest-indexed failure, matching Map's
// deterministic error rule as closely as an aborted run allows.
func MapCtx[T, R any](ctx context.Context, workers int, items []T,
	fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// cause is the lowest-indexed non-cancellation error.
	var (
		causeMu  sync.Mutex
		cause    error
		causeIdx int
	)
	record := func(i int, err error) {
		if isCancellation(err) {
			return
		}
		causeMu.Lock()
		if cause == nil || i < causeIdx {
			cause, causeIdx = err, i
		}
		causeMu.Unlock()
	}

	p := New[R](workers)
	for i, item := range items {
		p.Submit(func() (r R, err error) {
			defer func() {
				if v := recover(); v != nil {
					err = &PanicError{Value: v, Stack: debug.Stack()}
				}
				if err != nil {
					record(i, err)
					cancel()
				}
			}()
			if err := cctx.Err(); err != nil {
				return r, err
			}
			return fn(cctx, i, item)
		})
	}
	results, waitErr := p.Wait()
	causeMu.Lock()
	defer causeMu.Unlock()
	switch {
	case cause != nil:
		return results, cause
	case waitErr != nil && ctx.Err() != nil:
		return results, ctx.Err()
	default:
		return results, waitErr
	}
}

// isCancellation reports whether err only says "a context was canceled"
// rather than naming a root cause.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Grid runs fn over every (row, seed) cell of a rows × len(seeds) grid —
// the shape of every multi-seed evaluation: a row is one configuration,
// and each of its cells is that configuration run on one seed. All cells
// share one MapCtx pool (flattened row-major, so workers stay busy across
// rows instead of draining one row's seeds at a time), and the results
// come back config-major: out[row][k] is row's run on seeds[k], in that
// order at any worker count. Errors and cancellation follow MapCtx; on
// failure Grid returns no results.
func Grid[R any](ctx context.Context, workers, rows int, seeds []int64,
	fn func(ctx context.Context, row int, seed int64) (R, error)) ([][]R, error) {

	ns := len(seeds)
	flat, err := MapCtx(ctx, workers, make([]struct{}, rows*ns), func(ctx context.Context, i int, _ struct{}) (R, error) {
		return fn(ctx, i/ns, seeds[i%ns])
	})
	if err != nil {
		return nil, err
	}
	out := make([][]R, rows)
	for r := range out {
		out[r] = flat[r*ns : (r+1)*ns : (r+1)*ns]
	}
	return out, nil
}
