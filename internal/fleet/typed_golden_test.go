package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// typedGoldenDigest is the SHA-256 of the JSON reports of every built-in
// strategy over two typed catalog universes (see TestTypedGolden). Any
// change that moves a report, including the relative order of tied price
// changes across markets, changes it.
const typedGoldenDigest = "05f913814254383d39cd0cb06999297d2e24e25a46f19d6969e8ea8589e2e026"

// TestTypedGolden pins typed fleet months end to end: a 30-day diurnal
// fleet anchored on "small" over the default catalog's 40-market
// universe, for each of the three strategies on two universe seeds.
// Seed 912282 has shared shocks that move several markets at one
// instant, so the provider's tie order among simultaneous price changes
// is part of what this digest pins.
func TestTypedGolden(t *testing.T) {
	horizon := 30 * sim.Day
	mcfg := market.DefaultConfig(0)
	mcfg.Types = catalog.Default().TypeSpecs()
	seeds := []int64{912282, 607784}
	var all []Report
	for _, strat := range Strategies() {
		demand, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, 0))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Strategy:   strat,
			Demand:     demand,
			Planner:    LinearPlanner{PerReplica: 6},
			Catalog:    catalog.Default(),
			AnchorType: "small",
		}
		reps, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, horizon, seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, reps...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != typedGoldenDigest {
		t.Fatalf("typed report digest = %s, want %s", got, typedGoldenDigest)
	}
}
