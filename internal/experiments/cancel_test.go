package experiments

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"spothost/internal/sim"
)

// TestExperimentCanceledMidRun exercises the serving layer's abort path
// end to end: a slow experiment whose Options.Context is canceled returns
// promptly with context.Canceled instead of finishing its grid. The
// cancellation lands at a fixed context poll partway through the grid,
// however fast the machine simulates.
func TestExperimentCanceledMidRun(t *testing.T) {
	opts := Quick()
	opts.Seeds = []int64{99} // unshared seed: cells must simulate, not hit the cache
	opts.Horizon = 60 * sim.Day
	opts.Parallel = 1 // one cell at a time, so polls arrive in a fixed order
	const k = 20
	ctx := newPollCancelCtx(k)
	opts.Context = ctx
	start := time.Now()
	_, err := Figure6(opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want context.Canceled", err, elapsed)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("canceled experiment took %v to return", elapsed)
	}
	// The grid stopped before its end: run to completion, it polls more
	// often than the canceled run did.
	full := newPollCancelCtx(math.MaxInt64)
	opts.Context = full
	if _, err := Figure6(opts); err != nil {
		t.Fatal(err)
	}
	if n := full.polls.Load(); n <= k+1 {
		t.Fatalf("a full grid polls %d times, the cancel at poll %d did not stop it early", n, k+1)
	}
}

// pollCancelCtx reports cancellation from the poll after its k-th on: a
// cancel at a fixed point of a run rather than at a wall-clock instant,
// which a fast run could finish before.
type pollCancelCtx struct {
	context.Context // a live Done channel, so the engines poll Err
	cancel          context.CancelFunc
	polls           atomic.Int64
	k               int64
}

func newPollCancelCtx(k int64) *pollCancelCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCancelCtx{Context: ctx, cancel: cancel, k: k}
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) > c.k {
		c.cancel()
	}
	return c.Context.Err()
}

func TestExperimentPreCanceled(t *testing.T) {
	opts := Quick()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx
	if _, err := Figure6(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
