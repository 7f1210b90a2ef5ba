package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
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
	cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Service.VM.Units = 1
	cfg.Markets = []market.ID{
		{Region: "us-east-1a", Type: "small"},
		{Region: "us-east-1a", Type: "medium"},
	}
	cfg.StabilityPenalty = lambda
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
}

// TestStabilityZeroMatchesGreedy: lambda = 0 must be byte-identical to the
// paper's greedy behaviour (same migrations, same cost).
func TestStabilityZeroMatchesGreedy(t *testing.T) {
	cfg := stabilityConfig(t, 0)
	a, err := Run(stabilitySet(t), fixedCloudParams(), cfg, 80*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Explicitly construct the greedy config without the stability field.
	cfg2, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
	if err != nil {
		t.Fatal(err)
	}
	cfg2.Service.VM.Units = 1
	cfg2.Markets = cfg.Markets
	b, err := Run(stabilitySet(t), fixedCloudParams(), cfg2, 80*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lambda=0 diverged from greedy:\n%+v\n%+v", a, b)
	}
}

// TestStabilityAwareOnGeneratedUniverse checks the future-work claim
// end-to-end: on volatile multi-region universes, stability-aware bidding
// should not increase unavailability, and usually reduces migrations.
func TestStabilityAwareOnGeneratedUniverse(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 15 * sim.Day

	mk := func(lambda float64) Config {
		cfg, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Service = UnitFleet(4)
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
	grid, err := RunSeedsTracedCtx(context.Background(), mcfg, []Config{mk(0), mk(1.0)}, nil, 15*sim.Day, seeds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedy, aware := grid[0], grid[1]
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

// TestStabilityDigest pins stability-aware scheduling bit for bit to a
// digest recorded before the volatility estimate moved from per-market
// price subscriptions to a fold over the trace columns. It covers cold,
// checkpointing and forked runs on generated universes and on the
// hand-built two-market script (price changes on whole hours), and a
// two-service portfolio whose services share candidate markets and
// start at different times, hashed with the spans its recorder holds.
func TestStabilityDigest(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()
	for _, lambda := range []float64{0.5, 2} {
		for _, seed := range []int64{7, 23} {
			set := forkUniverse(t, seed)
			for _, bidding := range []Bidding{Proactive, Reactive} {
				cfg := multiConfig(t, bidding, lambda)
				hashStability(t, ctx, h, set, cfg, 4*sim.Day)
			}
		}
		hashStability(t, ctx, h, stabilitySet(t), stabilityConfig(t, lambda), 80*sim.Hour)
	}

	p := NewPortfolio(forkUniverse(t, 7), fixedCloudParams())
	rec := trace.NewRecorder("stability")
	p.SetRecorder(rec)
	early := multiConfig(t, Proactive, 0.5)
	late := multiConfig(t, Reactive, 2)
	late.Home = market.ID{Region: home.Region, Type: "medium"}
	if err := p.AddAt(0, "early", early); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAt(30*sim.Hour+17, "late", late); err != nil {
		t.Fatal(err)
	}
	if err := p.RunCtx(context.Background(), 4*sim.Day); err != nil {
		t.Fatal(err)
	}
	for _, name := range p.Services() {
		rep, err := p.Report(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %+v\n", name, rep)
	}
	fmt.Fprintf(h, "%+v\n", rec.Spans())

	const want = "d0410baa5cd01d34dffc145293294f3b9f54a7e7cd9c48dc0a06118d90217414"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("stability digest = %s, want %s", got, want)
	}
}

// hashStability checks that the checkpointing pilot of cfg and a fork
// from every checkpoint it captures reproduce the cold run, then writes
// the cold report and the checkpoint times into h.
func hashStability(t *testing.T, ctx context.Context, h hash.Hash, set *market.Set, cfg Config, horizon sim.Duration) {
	t.Helper()
	cold, err := RunCtx(ctx, set, fixedCloudParams(), cfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	pilot, log, err := RunWithCheckpointsCtx(ctx, set, fixedCloudParams(), cfg, horizon, 5*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, pilot) {
		t.Fatalf("capturing checkpoints perturbed the run:\ncold  %+v\npilot %+v", cold, pilot)
	}
	if len(log.Checkpoints) == 0 {
		t.Fatalf("no checkpoints captured over %v", horizon)
	}
	fmt.Fprintf(h, "cold %+v\n", cold)
	for _, ck := range log.Checkpoints {
		forked, err := RunForkedCtx(ctx, set, fixedCloudParams(), cfg, horizon, ck)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, forked) {
			t.Fatalf("fork at t=%v diverges from cold run:\ncold %+v\nfork %+v", ck.At(), cold, forked)
		}
		fmt.Fprintf(h, "fork %v\n", ck.At())
	}
}
