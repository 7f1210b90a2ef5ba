package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestRunCtxCanceledMidRun verifies the acceptance bar for the serving
// layer: a long simulation canceled mid-flight returns promptly with
// context.Canceled instead of running out its horizon.
func TestRunCtxCanceledMidRun(t *testing.T) {
	mcfg := market.DefaultConfig(3)
	mcfg.Horizon = 120 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, mcfg.Types)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
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
}

func TestRunSeedsParallelCtxPreCanceled(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 30 * sim.Day
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, mcfg.Types)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunSeedsTracedCtx(ctx, mcfg, cloud.DefaultParams(0), cfg,
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
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, mcfg.Types)
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
