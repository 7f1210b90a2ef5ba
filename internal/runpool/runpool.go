// Package runpool fans independent simulation runs out across CPU cores.
//
// It is built for the repo's evaluation workloads: every
// (policy x market set x seed) cell is an independent, deterministic,
// single-threaded simulation, so the only way to use more than one core is
// to run many cells at once. MapCtx, the one fan-out, guarantees that
// parallel execution is observationally identical to serial execution:
//
//   - results come back in item order, regardless of the order items
//     finish in;
//   - the returned error is chosen by item index (the lowest-indexed root
//     cause), not by whichever item happened to fail first on the clock,
//     so error propagation is deterministic too;
//   - a panic inside an item is recovered and surfaced as a *PanicError
//     rather than tearing down the process from a worker goroutine.
//
// Items must be independent: they may not communicate with each other and
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

// PanicError wraps a panic recovered from an item.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

// Error describes the recovered panic.
func (p *PanicError) Error() string {
	return fmt.Sprintf("runpool: task panicked: %v\n%s", p.Value, p.Stack)
}

// MapCtx runs fn over every item with at most workers items in flight
// (workers <= 0 means DefaultWorkers) and returns the results in item
// order, identical at any worker count. fn receives a context that is
// canceled as soon as any item fails, any item panics, or the caller's
// ctx is done. Items that have not started yet are then skipped (their
// slot reports the context's error), and a well-behaved fn — one that
// polls its context, like a sim.Engine run — returns early, so the first
// failure or a caller cancel drains the run promptly instead of finishing
// the whole grid.
//
// On failure MapCtx prefers the lowest-indexed error that is not itself a
// cancellation (the root cause rather than collateral ctx.Err()s); when
// every recorded error is a cancellation it returns the caller context's
// error if set, else the lowest-indexed failure. Either way the choice is
// by index, not by which item failed first on the clock.
func MapCtx[T, R any](ctx context.Context, workers int, items []T,
	fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	cctx := itemCtx{child, ctx}

	// Each goroutine writes only its own slots, and wg.Wait orders those
	// writes before the reads below, so the slices need no lock.
	results := make([]R, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(items))
	for i, item := range items {
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &PanicError{Value: v, Stack: debug.Stack()}
				}
				if errs[i] != nil {
					cancel()
				}
			}()
			if errs[i] = cctx.Err(); errs[i] != nil {
				return
			}
			results[i], errs[i] = fn(cctx, i, item)
		}()
	}
	wg.Wait()

	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isCancellation(err) {
			return results, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil && ctx.Err() != nil {
		return results, ctx.Err()
	}
	return results, first
}

// itemCtx is the context MapCtx hands its items: the run's cancelable
// child of the caller's context, whose Err also asks the caller's context
// directly, so an item's poll sees the caller's cancellation at once even
// when that context reaches its children only asynchronously.
type itemCtx struct {
	context.Context
	caller context.Context
}

func (c itemCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	return c.caller.Err()
}

// isCancellation reports whether err only says "a context was canceled"
// rather than naming a root cause.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Grid runs fn over every (row, seed) cell of a rows × len(seeds) grid —
// the shape of every multi-seed evaluation: a row is one configuration,
// and each of its cells is that configuration run on one seed. All cells
// share one MapCtx call (flattened row-major, so workers stay busy across
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
