package sched

import (
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

func portfolioUniverse(t *testing.T) *market.Set {
	t.Helper()
	cfg := market.DefaultConfig(55)
	cfg.Horizon = 8 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestPortfolioLifecycle(t *testing.T) {
	p := NewPortfolio(portfolioUniverse(t), cloud.DefaultParams(55))

	shop, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "medium"}, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	api, err := DefaultConfig(market.ID{Region: "us-west-1a", Type: "small"}, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	api.Bidding = Reactive
	batch, err := DefaultConfig(market.ID{Region: "us-east-1b", Type: "large"}, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	batch.Bidding = PureSpot
	batch.Mechanism = vm.CKPTLazy

	if err := p.Add("shop", shop); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("api", api); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("batch", batch); err != nil {
		t.Fatal(err)
	}
	// Error cases before running.
	if err := p.Add("shop", shop); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := p.Add("", shop); err == nil {
		t.Fatal("empty name accepted")
	}
	bad := shop
	bad.Home = market.ID{Region: "mars", Type: "small"}
	bad.Markets = []market.ID{bad.Home}
	if err := p.Add("bad", bad); err == nil {
		t.Fatal("invalid config accepted")
	}

	if err := p.Run(8 * sim.Day); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(8 * sim.Day); err == nil {
		t.Fatal("double run accepted")
	}
	if err := p.Add("late", shop); err == nil {
		t.Fatal("add after run accepted")
	}

	// Per-service reports.
	names := p.Services()
	if len(names) != 3 || names[0] != "shop" {
		t.Fatalf("services = %v", names)
	}
	shopRep, err := p.Report("shop")
	if err != nil {
		t.Fatal(err)
	}
	if shopRep.Cost <= 0 || shopRep.Policy != "proactive" {
		t.Fatalf("shop report: %+v", shopRep)
	}
	if _, err := p.Report("ghost"); err == nil {
		t.Fatal("unknown service accepted")
	}
	all := p.Reports()
	if len(all) != 3 {
		t.Fatalf("reports = %d", len(all))
	}

	// Consolidated totals.
	tot := p.Totals()
	if tot.Services != 3 {
		t.Fatalf("totals services = %d", tot.Services)
	}
	sum := all["shop"].Cost + all["api"].Cost + all["batch"].Cost
	if d := tot.Cost - sum; d > 1e-9 || d < -1e-9 {
		t.Fatalf("total cost %v != sum %v", tot.Cost, sum)
	}
	if tot.NormalizedCost() <= 0 || tot.NormalizedCost() > 0.6 {
		t.Fatalf("portfolio normalized cost = %v", tot.NormalizedCost())
	}
	// The pure-spot batch service must be the availability laggard.
	if tot.WorstService != "batch" {
		t.Fatalf("worst service = %q, want batch", tot.WorstService)
	}
	if tot.WorstUnavailability < tot.MeanUnavailability {
		t.Fatal("worst below mean")
	}
	if tot.Migrations.Total() == 0 {
		t.Fatal("no migrations recorded across the portfolio")
	}

	// Per-service event logs are recoverable after the run.
	shopEvents, err := p.Events("shop")
	if err != nil {
		t.Fatal(err)
	}
	if len(shopEvents) == 0 {
		t.Fatal("shop event log empty after an 8-day run")
	}
	for i := 1; i < len(shopEvents); i++ {
		if shopEvents[i].At < shopEvents[i-1].At {
			t.Fatalf("event log out of order at %d: %v < %v", i, shopEvents[i].At, shopEvents[i-1].At)
		}
	}
	if _, err := p.Events("ghost"); err == nil {
		t.Fatal("unknown service event log accepted")
	}
}

func TestPortfolioEmptyRun(t *testing.T) {
	p := NewPortfolio(portfolioUniverse(t), cloud.DefaultParams(1))
	if err := p.Run(0); err == nil {
		t.Fatal("empty portfolio ran")
	}
}

// TestPortfolioSharesOneLedger: the provider's ledger equals the sum of
// the services' costs (no cross-service leakage or double billing).
func TestPortfolioSharesOneLedger(t *testing.T) {
	p := NewPortfolio(portfolioUniverse(t), cloud.DefaultParams(7))
	for i, reg := range []market.Region{"us-east-1a", "eu-west-1a"} {
		cfg, err := DefaultConfig(market.ID{Region: reg, Type: "small"}, market.DefaultTypes())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add([]string{"a", "b"}[i], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(8 * sim.Day); err != nil {
		t.Fatal(err)
	}
	tot := p.Totals()
	ledger := p.Provider().Ledger().Total()
	if diff := tot.Cost - ledger; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("service cost sum %v != provider ledger %v", tot.Cost, ledger)
	}
}
