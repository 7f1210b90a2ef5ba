package sched

import (
	"context"
	"reflect"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestRunSeedsParallelDeterminism checks that fanning the per-seed runs
// out across workers produces reports identical to the serial path — the
// core guarantee of the concurrency layer.
func TestRunSeedsParallelDeterminism(t *testing.T) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := DefaultConfig(home)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 4 * sim.Day
	seeds := []int64{3, 5, 8, 13, 21}

	serial, err := RunSeedsTracedCtx(context.Background(), mcfg, []Config{cfg}, nil, 4*sim.Day, seeds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, len(seeds), 2 * len(seeds)} {
		parallel, err := RunSeedsTracedCtx(context.Background(), mcfg, []Config{cfg}, nil, 4*sim.Day, seeds, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel reports differ from serial", workers)
		}
	}
}

// TestRunSeedsEmpty keeps the no-seeds error behaviour.
func TestRunSeedsEmpty(t *testing.T) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := DefaultConfig(home)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSeedsTracedCtx(context.Background(), market.DefaultConfig(0), []Config{cfg}, nil, 0, nil, 0, nil); err == nil {
		t.Fatal("want error for empty seed list")
	}
}

// TestRunSeedsUsesSharedCache checks repeated RunSeedsTracedCtx calls hit the
// universe cache rather than regenerating.
func TestRunSeedsUsesSharedCache(t *testing.T) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := DefaultConfig(home)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 2 * sim.Day
	// An uncommon spike rate keeps this test's universes distinct from
	// other tests sharing the process-wide cache.
	mcfg.SpikesPerDay = 2.345

	before := market.SharedCache().Stats()
	seeds := []int64{101, 102}
	if _, err := RunSeedsTracedCtx(context.Background(), mcfg, []Config{cfg}, nil, 2*sim.Day, seeds, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSeedsTracedCtx(context.Background(), mcfg, []Config{cfg}, nil, 2*sim.Day, seeds, 0, nil); err != nil {
		t.Fatal(err)
	}
	after := market.SharedCache().Stats()
	if misses := after.Misses - before.Misses; misses != uint64(len(seeds)) {
		t.Fatalf("generated %d universes, want %d (second call should be cache hits)",
			misses, len(seeds))
	}
	if hits := after.Hits - before.Hits; hits < uint64(len(seeds)) {
		t.Fatalf("cache hits %d, want >= %d", hits, len(seeds))
	}
}
