package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestRunCtxCanceledMidRun verifies the acceptance bar for the serving
// layer: a long simulation canceled mid-flight returns promptly with
// context.Canceled instead of running out its horizon. The cancellation
// lands at the engine's fourth poll, a fixed point of the run, however
// fast the machine simulates.
func TestRunCtxCanceledMidRun(t *testing.T) {
	mcfg := market.DefaultConfig(3)
	mcfg.Horizon = 120 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	ctx := newPollCancelCtx(k)
	start := time.Now()
	_, err = RunCtx(ctx, set, cloud.DefaultParams(3), cfg, 120*sim.Day)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (run finished in %v?)", err, elapsed)
	}
	// The engine polls every sim.CancelPollInterval events; even on a slow
	// CI box that batch executes in well under a second.
	if elapsed > 5*time.Second {
		t.Fatalf("canceled run took %v to return", elapsed)
	}
	// The run stopped before its horizon: run to completion, it polls
	// more often than the canceled run did.
	full := newPollCancelCtx(math.MaxInt64)
	if _, err := RunCtx(full, set, cloud.DefaultParams(3), cfg, 120*sim.Day); err != nil {
		t.Fatal(err)
	}
	if n := full.polls.Load(); n <= k+1 {
		t.Fatalf("a full run polls %d times, the cancel at poll %d did not stop it early", n, k+1)
	}
}

// pollCancelCtx reports cancellation from the poll after its k-th on: a
// cancel at a fixed point of a run rather than at a wall-clock instant,
// which a fast run could finish before.
type pollCancelCtx struct {
	context.Context // a live Done channel, so the engine polls Err
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

func TestRunSeedsParallelCtxPreCanceled(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 30 * sim.Day
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunSeedsTracedCtx(ctx, mcfg, []Config{cfg}, nil,
		30*sim.Day, []int64{1, 2, 3, 4}, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	mcfg := market.DefaultConfig(7)
	mcfg.Horizon = 5 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(set, cloud.DefaultParams(7), cfg, 5*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := RunCtx(context.Background(), set, cloud.DefaultParams(7), cfg, 5*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", ctxed) {
		t.Fatalf("reports differ under background context:\n%+v\n%+v", plain, ctxed)
	}
}
