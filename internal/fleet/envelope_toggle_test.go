package fleet

import (
	"context"
	"reflect"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestEnvelopeToggleEquivalence is the before/after check for the fleet's
// envelope fast path: LowestPrice and Diversified runs with the envelope on
// and off must produce byte-identical reports, because fastPick reproduces
// the strategies' candidate-scan picks exactly (and declines when it
// cannot, falling back to the scan).
func TestEnvelopeToggleEquivalence(t *testing.T) {
	for _, strat := range []Strategy{LowestPrice{}, Diversified{}} {
		demand, err := NewDiurnalDemand(DefaultDiurnalConfig(15*sim.Day, 0))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Strategy: strat,
			Demand:   demand,
			Planner:  LinearPlanner{PerReplica: 6},
		}
		mcfg := market.DefaultConfig(0)
		seeds := []int64{1, 2, 3}

		useEnvelope = true
		fast, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, 15*sim.Day, seeds, 0)
		if err != nil {
			useEnvelope = true
			t.Fatal(err)
		}
		useEnvelope = false
		slow, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, 15*sim.Day, seeds, 0)
		useEnvelope = true
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			if !reflect.DeepEqual(fast[i], slow[i]) {
				t.Fatalf("%s seed %d: envelope on/off reports differ:\n on: %+v\noff: %+v",
					fast[i].Strategy, seeds[i], fast[i], slow[i])
			}
		}
	}
}
