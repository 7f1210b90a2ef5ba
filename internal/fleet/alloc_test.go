package fleet

import (
	"context"
	"testing"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// newCatalogSim builds a 30-day typed-catalog fleet simulation over a
// pre-generated universe, the same shape as BenchmarkFleetMonthCatalog.
func newCatalogSim(t testing.TB, set *market.Set) *Sim {
	t.Helper()
	cat := catalog.Default()
	demand, err := NewDiurnalDemand(DefaultDiurnalConfig(30*sim.Day, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimObs(set, cloud.DefaultParams(1), Config{
		Catalog:    cat,
		AnchorType: "small",
		Strategy:   Diversified{},
		Demand:     demand,
		Planner:    LinearPlanner{PerReplica: 6},
	}, 30*sim.Day, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func catalogSet(t testing.TB) *market.Set {
	t.Helper()
	mcfg := market.DefaultConfig(0)
	mcfg.Types = catalog.Default().TypeSpecs()
	mcfg.Seed = 1
	set, err := market.SharedCache().Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCandidatesNoAllocSteadyState pins the strategy-input fast path:
// after the first tick, candidates() reuses the controller-owned scratch
// slice and occupancy map, so building the candidate list for the full
// catalog allocates nothing.
func TestCandidatesNoAllocSteadyState(t *testing.T) {
	set := catalogSet(t)
	s := newCatalogSim(t, set)
	// Run a few days so the fleet is populated and the scratch buffers
	// have reached their steady-state capacity.
	if _, err := s.Step(context.Background(), 3*sim.Day); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.ctrl.candidates(allSizes)
	})
	if allocs != 0 {
		t.Fatalf("candidates() allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestCatalogMonthAllocBudget pins the whole-run allocation count for a
// 30-day typed-catalog fleet with the universe pre-generated. Before the
// scratch-buffer reuse in candidates()/spotInMarket() this run allocated
// ~32k objects (a fresh slice and map per autoscaling tick, ~8.6k ticks);
// it now sits near 15k. The ceiling leaves headroom for incidental churn
// while still catching a reintroduced per-tick allocation, which would
// add tens of thousands.
func TestCatalogMonthAllocBudget(t *testing.T) {
	set := catalogSet(t)
	allocs := testing.AllocsPerRun(1, func() {
		s := newCatalogSim(t, set)
		if _, err := s.Step(context.Background(), s.Horizon()); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 20000
	if allocs > budget {
		t.Fatalf("30-day catalog fleet run allocates %.0f objects, budget %d", allocs, budget)
	}
}
