package sched

import (
	"context"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// stabilitySet builds two markets with equal long-run mean price but very
// different volatility: "jumpy" oscillates between cheap and expensive,
// "steady" stays at the mean.
func stabilitySet(t *testing.T) *market.Set {
	t.Helper()
	jumpyID := market.ID{Region: "us-east-1a", Type: "small"}
	steadyID := market.ID{Region: "us-east-1a", Type: "medium"}
	end := sim.Time(80 * sim.Hour)

	// Jumpy: alternates 0.004 / 0.036 every 2 hours (mean 0.02/unit
	// price, huge swing). Starts cheap so a greedy policy takes the bait.
	var pts []market.Point
	price := 0.004
	for ts := 0.0; ts < float64(end); ts += 2 * sim.Hour {
		pts = append(pts, market.Point{T: ts, Price: price})
		if price == 0.004 {
			price = 0.036
		} else {
			price = 0.004
		}
	}
	jumpy, err := market.NewTrace(jumpyID, pts, end)
	if err != nil {
		t.Fatal(err)
	}
	// Steady: flat 0.024 — above the jumpy market's mean (0.02) but far
	// below its expensive phase, so a greedy policy bounces between the
	// two markets every phase flip.
	steady, err := market.NewTrace(steadyID, []market.Point{{T: 0, Price: 0.024}}, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{jumpy, steady},
		map[market.ID]float64{jumpyID: 0.06, steadyID: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// stabilityConfig hosts one unit VM over both markets.
func stabilityConfig(t *testing.T, lambda float64) Config {
	t.Helper()
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Service.VM.Units = 1
	cfg.Markets = []market.ID{
		{Region: "us-east-1a", Type: "small"},
		{Region: "us-east-1a", Type: "medium"},
	}
	cfg.StabilityPenalty = lambda
	cfg.VolatilityHalflife = 6 * sim.Hour
	return cfg
}

// TestStabilityAwareReducesChurn: with lambda = 0 the greedy policy chases
// the jumpy market's cheap phases and migrates constantly; a stability
// penalty parks the service in the steady market.
func TestStabilityAwareReducesChurn(t *testing.T) {
	greedy, err := Run(stabilitySet(t), fixedCloudParams(), stabilityConfig(t, 0), 80*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := Run(stabilitySet(t), fixedCloudParams(), stabilityConfig(t, 2), 80*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Migrations.Planned < 5 {
		t.Fatalf("greedy policy should churn on this script: %+v", greedy.Migrations)
	}
	if stable.Migrations.Planned >= greedy.Migrations.Planned/2 {
		t.Fatalf("stability penalty did not reduce churn: %d vs %d planned",
			stable.Migrations.Planned, greedy.Migrations.Planned)
	}
	if stable.DowntimeSeconds > greedy.DowntimeSeconds {
		t.Fatalf("stability-aware downtime %.1f should not exceed greedy %.1f",
			stable.DowntimeSeconds, greedy.DowntimeSeconds)
	}
}

// TestStabilityPenaltyValidation: the config rejects inconsistent
// stability settings.
func TestStabilityPenaltyValidation(t *testing.T) {
	cfg := stabilityConfig(t, 1)
	cfg.StabilityPenalty = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative lambda accepted")
	}
	cfg = stabilityConfig(t, 1)
	cfg.VolatilityHalflife = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("lambda without halflife accepted")
	}
}

// TestStabilityZeroMatchesGreedy: lambda = 0 must be byte-identical to the
// paper's greedy behaviour (same migrations, same cost).
func TestStabilityZeroMatchesGreedy(t *testing.T) {
	cfg := stabilityConfig(t, 0)
	a, err := Run(stabilitySet(t), fixedCloudParams(), cfg, 80*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Explicitly construct the greedy config without any stability fields.
	cfg2 := stabilityConfig(t, 0)
	cfg2.VolatilityHalflife = 0
	b, err := Run(stabilitySet(t), fixedCloudParams(), cfg2, 80*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Migrations != b.Migrations {
		t.Fatalf("lambda=0 diverged from greedy: %+v vs %+v", a.Migrations, b.Migrations)
	}
}

// TestStabilityAwareOnGeneratedUniverse checks the future-work claim
// end-to-end: on volatile multi-region universes, stability-aware bidding
// should not increase unavailability, and usually reduces migrations.
func TestStabilityAwareOnGeneratedUniverse(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 15 * sim.Day

	mk := func(lambda float64) Config {
		cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, mcfg.Types)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Service = ServiceSpec{
			VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
			Count: 4,
		}
		for _, reg := range []market.Region{"us-east-1a", "us-east-1b", "eu-west-1a"} {
			for _, ty := range []market.InstanceType{"small", "medium", "large", "xlarge"} {
				cfg.Markets = append(cfg.Markets, market.ID{Region: reg, Type: ty})
			}
		}
		cfg.Markets = cfg.Markets[1:] // drop the duplicate home entry
		cfg.Markets = append([]market.ID{cfg.Home}, cfg.Markets...)
		cfg.StabilityPenalty = lambda
		return cfg
	}

	seeds := []int64{3, 9}
	greedy, err := RunSeedsTracedCtx(context.Background(), mcfg, cloud.DefaultParams(0), mk(0), 15*sim.Day, seeds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := RunSeedsTracedCtx(context.Background(), mcfg, cloud.DefaultParams(0), mk(1.0), 15*sim.Day, seeds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var gMig, aMig int
	var gCost, aCost float64
	for i := range greedy {
		gMig += greedy[i].Migrations.Total()
		aMig += aware[i].Migrations.Total()
		gCost += greedy[i].NormalizedCost()
		aCost += aware[i].NormalizedCost()
	}
	if aMig > gMig {
		t.Errorf("stability-aware migrated more: %d vs %d", aMig, gMig)
	}
	// The stability premium should be modest (< 40% relative).
	if aCost > gCost*1.4 {
		t.Errorf("stability premium too large: %.3f vs %.3f", aCost, gCost)
	}
}
