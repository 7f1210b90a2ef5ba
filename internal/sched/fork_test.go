package sched

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sim"
)

// forkUniverse generates a small multi-market universe for fork tests.
func forkUniverse(t *testing.T, seed int64) *market.Set {
	t.Helper()
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = 6 * sim.Day
	set, err := market.SharedCache().Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// forkConfigs enumerates the bidding-policy x market-shape cross product
// the property test sweeps: single-market and multi-market (every default
// type in the home region), under proactive and reactive bidding, plus a
// stability-aware multi-market entry whose checkpoints carry volatility
// state.
func forkConfigs(t *testing.T) map[string]Config {
	t.Helper()
	out := map[string]Config{}
	for _, bidding := range []Bidding{Proactive, Reactive} {
		single := mustConfig(t)
		single.Bidding = bidding
		out[fmt.Sprintf("%v/single", bidding)] = single
		out[fmt.Sprintf("%v/multi", bidding)] = multiConfig(t, bidding, 0)
	}
	out["Proactive/multi-stability"] = multiConfig(t, Proactive, 1)
	return out
}

// multiConfig hosts four one-unit VMs over every default type in the home
// region under the given bidding policy and stability penalty.
func multiConfig(t *testing.T, bidding Bidding, lambda float64) Config {
	t.Helper()
	multi := mustConfig(t)
	multi.Bidding = bidding
	multi.StabilityPenalty = lambda
	multi.Service = UnitFleet(4)
	for _, ts := range market.DefaultTypes() {
		id := market.ID{Region: home.Region, Type: ts.Name}
		if id != home {
			multi.Markets = append(multi.Markets, id)
		}
	}
	return multi
}

// TestForkByteIdentity is the checkpoint/fork/resume property test:
// capturing checkpoints does not perturb the pilot run, and resuming the
// same configuration from any captured tick boundary reproduces the cold
// run's report byte-for-byte.
func TestForkByteIdentity(t *testing.T) {
	ctx := context.Background()
	horizon := 4 * sim.Day
	every := 6 * sim.Hour
	for _, seed := range []int64{7, 23} {
		set := forkUniverse(t, seed)
		for name, cfg := range forkConfigs(t) {
			cold, err := RunCtx(ctx, set, fixedCloudParams(), cfg, horizon)
			if err != nil {
				t.Fatalf("seed %d %s cold: %v", seed, name, err)
			}
			pilot, log, err := RunWithCheckpointsCtx(ctx, set, fixedCloudParams(), cfg, horizon, every)
			if err != nil {
				t.Fatalf("seed %d %s pilot: %v", seed, name, err)
			}
			if !reflect.DeepEqual(cold, pilot) {
				t.Fatalf("seed %d %s: capturing checkpoints perturbed the run:\ncold  %+v\npilot %+v",
					seed, name, cold, pilot)
			}
			if len(log.Checkpoints) == 0 {
				t.Fatalf("seed %d %s: no checkpoints captured over %v", seed, name, horizon)
			}
			for _, ck := range log.Checkpoints {
				forked, err := RunForkedCtx(ctx, set, fixedCloudParams(), cfg, horizon, ck)
				if err != nil {
					t.Fatalf("seed %d %s fork at t=%v: %v", seed, name, ck.At(), err)
				}
				if !reflect.DeepEqual(cold, forked) {
					t.Fatalf("seed %d %s: fork at t=%v diverges from cold run:\ncold %+v\nfork %+v",
						seed, name, ck.At(), cold, forked)
				}
			}
		}
	}
}

// TestForkDifferentTau forks a pilot into a sibling whose CheckpointBound
// differs. The bound is invisible to a live-migration trajectory while it
// stays under the grace period — it moves only the forced-suspend metric
// instant and the checkpoint daemon's cadence — so the fork, with its
// journal-replayed downtime tracker and daemon I/O, must match the
// sibling's cold run byte-for-byte even when forking from the last
// checkpoint of the horizon.
func TestForkDifferentTau(t *testing.T) {
	ctx := context.Background()
	horizon := 4 * sim.Day
	every := 6 * sim.Hour
	for _, seed := range []int64{7, 23} {
		set := forkUniverse(t, seed)
		for _, bidding := range []Bidding{Proactive, Reactive} {
			pilotCfg := mustConfig(t)
			pilotCfg.Bidding = bidding
			pilotCfg.VMParams.CheckpointBound = 3

			_, log, err := RunWithCheckpointsCtx(ctx, set, fixedCloudParams(), pilotCfg, horizon, every)
			if err != nil {
				t.Fatal(err)
			}
			if len(log.Checkpoints) == 0 {
				t.Fatalf("seed %d %v: no checkpoints captured", seed, bidding)
			}
			ck := log.Checkpoints[len(log.Checkpoints)-1]

			sibling := pilotCfg
			sibling.VMParams.CheckpointBound = 30
			cold, err := RunCtx(ctx, set, fixedCloudParams(), sibling, horizon)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := RunForkedCtx(ctx, set, fixedCloudParams(), sibling, horizon, ck)
			if err != nil {
				t.Fatalf("seed %d %v tau fork: %v", seed, bidding, err)
			}
			if !reflect.DeepEqual(cold, forked) {
				t.Fatalf("seed %d %v: tau-30 fork of tau-3 pilot diverges:\ncold %+v\nfork %+v",
					seed, bidding, cold, forked)
			}
		}
	}
}

// TestForkSiblingIsolation: a checkpoint shares the pilot's append-only
// past (the downtime journal, the closed daemon epochs, the instance list
// and the provider's terminated instances), so the forks of one
// checkpoint must not see each other's writes. Each checkpoint is forked
// from two goroutines at once, then once more on its own, and every
// report must equal the cold run. Under -race a fork that appended into a
// shared array shows as a data race.
func TestForkSiblingIsolation(t *testing.T) {
	ctx := context.Background()
	horizon := 4 * sim.Day
	every := 6 * sim.Hour
	for _, seed := range []int64{7, 23} {
		set := forkUniverse(t, seed)
		for name, cfg := range forkConfigs(t) {
			cold, err := RunCtx(ctx, set, fixedCloudParams(), cfg, horizon)
			if err != nil {
				t.Fatalf("seed %d %s cold: %v", seed, name, err)
			}
			_, log, err := RunWithCheckpointsCtx(ctx, set, fixedCloudParams(), cfg, horizon, every)
			if err != nil {
				t.Fatalf("seed %d %s pilot: %v", seed, name, err)
			}
			for _, ck := range log.Checkpoints {
				var reps [3]metrics.Report
				var errs [3]error
				var wg sync.WaitGroup
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						reps[i], errs[i] = RunForkedCtx(ctx, set, fixedCloudParams(), cfg, horizon, ck)
					}()
				}
				wg.Wait()
				reps[2], errs[2] = RunForkedCtx(ctx, set, fixedCloudParams(), cfg, horizon, ck)
				for i, rep := range reps {
					if errs[i] != nil {
						t.Fatalf("seed %d %s fork %d at t=%v: %v", seed, name, i, ck.At(), errs[i])
					}
					if !reflect.DeepEqual(cold, rep) {
						t.Fatalf("seed %d %s: fork %d at t=%v diverges from cold run:\ncold %+v\nfork %+v",
							seed, name, i, ck.At(), cold, rep)
					}
				}
			}
		}
	}
}

// BenchmarkPilotCheckpoints measures one 30-day sweep pilot: a proactive
// run capturing a checkpoint every 6 hours. Its B/op is what the captures
// cost on top of the run.
func BenchmarkPilotCheckpoints(b *testing.B) {
	cfg, err := DefaultConfig(home)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := market.DefaultConfig(23)
	mcfg.Horizon = 30 * sim.Day
	set, err := market.SharedCache().Generate(mcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, log, err := RunWithCheckpointsCtx(context.Background(), set, cloud.DefaultParams(0), cfg, 30*sim.Day, 6*sim.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if len(log.Checkpoints) == 0 {
			b.Fatal("pilot captured no checkpoints")
		}
	}
}
