package fleet

import (
	"context"
	"reflect"
	"testing"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// smallMarkets returns the four regional "small" markets of the default
// universe, the single-type fleet's candidate set.
func smallMarkets() []market.ID {
	var ids []market.ID
	for _, rs := range market.DefaultRegions() {
		ids = append(ids, market.ID{Region: rs.Name, Type: "small"})
	}
	return ids
}

// TestCatalogToggleEquivalence pins the catalog's zero-cost abstraction
// claim: a fleet over a single-type catalog (one entry, one capacity
// unit) must produce reports byte-identical to the pre-catalog controller
// over the same markets — per-unit normalization multiplies by exactly
// 1.0, the unit-weighted envelope shares the legacy memo entry, and all
// capacity accounting collapses to replica counts.
func TestCatalogToggleEquivalence(t *testing.T) {
	single := catalog.MustNew([]catalog.Entry{
		{Name: "small", VCPU: 1, MemoryGB: 1.7, Units: 1, OnDemand: 0.06},
	})
	mcfg := market.DefaultConfig(0)
	seeds := []int64{1, 2, 3}
	horizon := 15 * sim.Day

	for _, strat := range []Strategy{LowestPrice{}, Diversified{}, StabilityOptimized{}} {
		demand, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, 0))
		if err != nil {
			t.Fatal(err)
		}
		legacy := Config{
			Markets:  smallMarkets(),
			Strategy: strat,
			Demand:   demand,
			Planner:  LinearPlanner{PerReplica: 6},
		}
		typed := legacy
		typed.Markets = nil // resolved from the catalog: the same 4 markets
		typed.Catalog = single
		typed.AnchorType = "small"

		want, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), legacy, horizon, seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), typed, horizon, seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("%s seed %d: catalog on/off reports differ:\n off: %+v\n  on: %+v",
					want[i].Strategy, seeds[i], want[i], got[i])
			}
		}
	}
}

// TestCatalogExplicitMarketsEquivalence covers the explicit-Markets path:
// passing the same market list with a full legacy catalog (all four paper
// types, anchored at the type in use) must also be byte-identical, since
// every configured market is single-typed at one unit.
func TestCatalogExplicitMarketsEquivalence(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	seeds := []int64{4, 5}
	horizon := 10 * sim.Day
	demand, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, 0))
	if err != nil {
		t.Fatal(err)
	}
	legacy := Config{
		Markets:  smallMarkets(),
		Strategy: Diversified{},
		Demand:   demand,
		Planner:  LinearPlanner{PerReplica: 6},
	}
	typed := legacy
	typed.Catalog = catalog.Legacy()
	typed.AnchorType = "small"

	want, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), legacy, horizon, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), typed, horizon, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("seed %d: explicit-markets catalog reports differ", seeds[i])
		}
	}
}

// TestCatalogMixedPlacement runs a fleet over the full default catalog
// and checks heterogeneous placement actually engages: replicas land on
// more than one instance type, capacity accounting stays consistent in
// units, and the served fraction stays high.
func TestCatalogMixedPlacement(t *testing.T) {
	mcfg := market.DefaultConfig(3)
	mcfg.Types = catalog.Default().TypeSpecs()
	horizon := 10 * sim.Day
	demand, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Strategy:   Diversified{},
		Demand:     demand,
		Planner:    LinearPlanner{PerReplica: 6},
		Catalog:    catalog.Default(),
		AnchorType: "small",
	}
	reps, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, horizon, []int64{9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	types := map[market.InstanceType]bool{}
	for id, u := range rep.MarketSeconds {
		if u.SpotSeconds+u.OnDemandSeconds > 0 {
			types[id.Type] = true
		}
	}
	if len(types) < 2 {
		t.Fatalf("mixed catalog placed on %d instance types, want >= 2 (markets: %v)", len(types), types)
	}
	if rep.TargetReplicaSeconds <= 0 {
		t.Fatal("no target unit-seconds accumulated")
	}
	if shortfall := rep.CapacityShortfall(); shortfall > 0.05 {
		t.Fatalf("capacity shortfall %.3f, want <= 0.05", shortfall)
	}
	if rep.Cost <= 0 || rep.BaselineCost <= 0 {
		t.Fatalf("degenerate costs: %v / baseline %v", rep.Cost, rep.BaselineCost)
	}
}

// TestCatalogConfigValidation exercises the new constructor errors.
func TestCatalogConfigValidation(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 2 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, cloud.DefaultParams(0))
	demand, err := NewDiurnalDemand(DefaultDiurnalConfig(2*sim.Day, 0))
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Strategy: LowestPrice{},
		Demand:   demand,
		Planner:  LinearPlanner{PerReplica: 6},
	}

	missingAnchor := base
	missingAnchor.Catalog = catalog.Legacy()
	if _, err := New(prov, missingAnchor); err == nil {
		t.Error("Catalog without AnchorType accepted")
	}

	unknownAnchor := base
	unknownAnchor.Catalog = catalog.Legacy()
	unknownAnchor.AnchorType = "quantum"
	if _, err := New(prov, unknownAnchor); err == nil {
		t.Error("unknown AnchorType accepted")
	}

	anchorOnly := base
	anchorOnly.AnchorType = "small"
	if _, err := New(prov, anchorOnly); err == nil {
		t.Error("AnchorType without a Catalog accepted")
	}

	weaker := base
	weaker.Catalog = catalog.Legacy()
	weaker.AnchorType = "xlarge"
	weaker.Markets = smallMarkets()
	if _, err := New(prov, weaker); err == nil {
		t.Error("markets weaker than the anchor accepted")
	}

	unknownType := base
	unknownType.Catalog = catalog.MustNew([]catalog.Entry{
		{Name: "medium", VCPU: 2, MemoryGB: 3.75, Units: 2, OnDemand: 0.12},
	})
	unknownType.AnchorType = "medium"
	unknownType.Markets = smallMarkets() // "small" missing from the catalog
	if _, err := New(prov, unknownType); err == nil {
		t.Error("markets with catalog-unknown types accepted")
	}
}
