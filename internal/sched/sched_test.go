package sched

import (
	"context"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

var home = market.ID{Region: "us-east-1a", Type: "small"}

// fixedCloudParams gives deterministic allocation latencies: 95 s
// on-demand, 240 s spot.
func fixedCloudParams() cloud.Params {
	p := cloud.DefaultParams(1)
	p.StartupCV = 0
	p.OnDemandStartupMean = map[string]sim.Duration{cloud.DefaultStartupClass: 95}
	p.SpotStartupMean = map[string]sim.Duration{cloud.DefaultStartupClass: 240}
	return p
}

// singleMarketSet builds a one-market universe with a given price script.
func singleMarketSet(t *testing.T, pts []market.Point, end sim.Time) *market.Set {
	t.Helper()
	tr, err := market.NewTrace(home, pts, end)
	if err != nil {
		t.Fatal(err)
	}
	s, err := market.NewSet([]*market.Trace{tr}, map[market.ID]float64{home: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := DefaultConfig(home, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runScenario(t *testing.T, set *market.Set, cfg Config, horizon sim.Duration) metrics.Report {
	t.Helper()
	r, err := Run(set, fixedCloudParams(), cfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	base := mustConfig(t)
	mutations := []func(*Config){
		func(c *Config) { c.Service.Count = 0 },
		func(c *Config) { c.Service.VM.MemoryGB = 0 },
		func(c *Config) { c.Markets = nil },
		func(c *Config) { c.Home.Type = "phantom" },
		func(c *Config) { c.Markets = []market.ID{{Region: "us-east-1a", Type: "phantom"}} },
		func(c *Config) { c.BidMultiple = 1 },
		func(c *Config) { c.Hysteresis = 1 },
		func(c *Config) { c.Service.VM.Units = 8 }, // small market can't hold it
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}

func TestNewRejectsUnknownMarkets(t *testing.T) {
	set := singleMarketSet(t, []market.Point{{T: 0, Price: 0.01}}, 10*sim.Hour)
	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, fixedCloudParams())
	cfg := mustConfig(t)
	cfg.Home = market.ID{Region: "mars-1a", Type: "small"}
	cfg.Markets = []market.ID{cfg.Home}
	if _, err := New(prov, cfg); err == nil {
		t.Fatal("unknown home market accepted")
	}
}

// TestOnDemandOnlyBaseline: the baseline policy pays full price and never
// goes down.
func TestOnDemandOnlyBaseline(t *testing.T) {
	set := singleMarketSet(t, []market.Point{{T: 0, Price: 0.01}}, 50*sim.Hour)
	cfg := mustConfig(t)
	cfg.Bidding = OnDemandOnly
	r := runScenario(t, set, cfg, 50*sim.Hour)

	if r.DowntimeSeconds != 0 {
		t.Fatalf("on-demand-only downtime = %v", r.DowntimeSeconds)
	}
	if r.Migrations.Total() != 0 {
		t.Fatalf("baseline migrated: %+v", r.Migrations)
	}
	if got := r.NormalizedCost(); got < 0.95 || got > 1.05 {
		t.Fatalf("normalized cost = %v, want ~1", got)
	}
	if r.SpotSeconds != 0 {
		t.Fatal("baseline used spot")
	}
}

// TestProactivePlannedAndReverse: a mid-band spike (above on-demand, below
// the 4x bid) triggers a planned migration to on-demand near the billing
// boundary and a reverse migration once the price falls.
func TestProactivePlannedAndReverse(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.10}, // > od 0.06, < bid 0.24
		{T: 30000, Price: 0.01},
	}, 50*sim.Hour)
	cfg := mustConfig(t)
	r := runScenario(t, set, cfg, 50*sim.Hour)

	if r.Migrations.Forced != 0 {
		t.Fatalf("proactive was forced: %+v", r.Migrations)
	}
	if r.Migrations.Planned < 1 {
		t.Fatalf("no planned migration: %+v", r.Migrations)
	}
	if r.Migrations.Reverse < 1 {
		t.Fatalf("no reverse migration: %+v", r.Migrations)
	}
	// Live hand-offs only: downtime well under a handful of seconds.
	if r.DowntimeSeconds > 5 {
		t.Fatalf("downtime = %.2f s, want sub-5s live hand-offs", r.DowntimeSeconds)
	}
	if r.Cost >= r.BaselineCost {
		t.Fatalf("cost %v not below baseline %v", r.Cost, r.BaselineCost)
	}
	// Most of the time is on spot.
	if r.SpotFraction() < 0.8 {
		t.Fatalf("spot fraction = %v", r.SpotFraction())
	}
	if r.OnDemandSeconds == 0 {
		t.Fatal("never used on-demand despite the spike")
	}
}

// TestProactiveForced: a sharp spike above the 4x bid revokes the server;
// the scheduler checkpoints within the grace window and lazily restores on
// an on-demand server acquired during the warning.
func TestProactiveForced(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30}, // > 4x od = 0.24
		{T: 20000, Price: 0.01},
	}, 50*sim.Hour)
	cfg := mustConfig(t)
	r := runScenario(t, set, cfg, 50*sim.Hour)

	if r.Migrations.Forced != 1 {
		t.Fatalf("forced = %d, want 1", r.Migrations.Forced)
	}
	if r.Migrations.MemoryLost != 0 {
		t.Fatal("memory lost despite checkpointing")
	}
	// Downtime = checkpoint bound (3 s) + lazy restore (20 s): the
	// on-demand server (95 s) arrives inside the 120 s grace window.
	if r.DowntimeSeconds < 20 || r.DowntimeSeconds > 30 {
		t.Fatalf("forced downtime = %.1f s, want ~23 s", r.DowntimeSeconds)
	}
	if r.DegradedSeconds <= 0 {
		t.Fatal("lazy restore should leave degraded time")
	}
	if r.Migrations.Reverse < 1 {
		t.Fatalf("no reverse migration after the spike: %+v", r.Migrations)
	}
}

// TestReactiveForcedOnMidBandSpike: the same mid-band spike that proactive
// handles with a planned live migration forces reactive (bid = on-demand)
// into a revocation — the Fig. 6(b) mechanism.
func TestReactiveForcedOnMidBandSpike(t *testing.T) {
	pts := []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.10},
		{T: 30000, Price: 0.01},
	}
	cfgP := mustConfig(t)
	cfgR := mustConfig(t)
	cfgR.Bidding = Reactive

	rp := runScenario(t, singleMarketSet(t, pts, 50*sim.Hour), cfgP, 50*sim.Hour)
	rr := runScenario(t, singleMarketSet(t, pts, 50*sim.Hour), cfgR, 50*sim.Hour)

	if rr.Migrations.Forced != 1 {
		t.Fatalf("reactive forced = %d, want 1", rr.Migrations.Forced)
	}
	if rp.Migrations.Forced != 0 {
		t.Fatalf("proactive forced = %d, want 0", rp.Migrations.Forced)
	}
	if rr.DowntimeSeconds <= rp.DowntimeSeconds {
		t.Fatalf("reactive downtime %.2f should exceed proactive %.2f",
			rr.DowntimeSeconds, rp.DowntimeSeconds)
	}
	if rr.Migrations.Reverse < 1 {
		t.Fatalf("reactive never reversed: %+v", rr.Migrations)
	}
}

// TestPureSpotRidesOutSpike: pure spot has no on-demand fallback — the
// service stays down for the whole spike (Fig. 11(b)).
func TestPureSpotRidesOutSpike(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 50*sim.Hour)
	cfg := mustConfig(t)
	cfg.Bidding = PureSpot
	r := runScenario(t, set, cfg, 50*sim.Hour)

	// Down from suspend (~9997-10120) until price drop + spot startup
	// (240 s) + lazy restore (20 s): roughly 10400-10600 s.
	if r.DowntimeSeconds < 9000 || r.DowntimeSeconds > 11500 {
		t.Fatalf("pure-spot downtime = %.0f s, want ~10300 s", r.DowntimeSeconds)
	}
	if r.OnDemandSeconds != 0 {
		t.Fatal("pure spot used on-demand")
	}
	if r.Cost >= r.BaselineCost {
		t.Fatalf("pure spot cost %v should be far below baseline %v", r.Cost, r.BaselineCost)
	}
}

// TestNaiveMechanism: the Fig. 3 strawman ignores the warning, loses
// memory, and waits out the on-demand acquisition plus a cold boot.
func TestNaiveMechanism(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 50*sim.Hour)
	cfg := mustConfig(t)
	cfg.Bidding = Reactive
	cfg.Mechanism = vm.Naive
	r := runScenario(t, set, cfg, 50*sim.Hour)

	if r.Migrations.MemoryLost < 1 {
		t.Fatal("naive restart should lose memory")
	}
	// Downtime: revocation episode = on-demand startup (95 s) + cold boot
	// (45 s), plus the later reverse migration which, naively, is another
	// reboot (45 s): ~185 s total.
	if r.DowntimeSeconds < 170 || r.DowntimeSeconds > 200 {
		t.Fatalf("naive downtime = %.1f s, want ~185 s", r.DowntimeSeconds)
	}
	if r.DownEpisodes < 2 {
		t.Fatalf("episodes = %d, want revocation + naive reverse", r.DownEpisodes)
	}
}

// TestMechanismDowntimeOrdering runs the same script — one forced
// migration (sharp spike) plus one reverse migration (price recovery) —
// under all four mechanism combinations and checks the paper's Fig. 7
// ranking: CKPT > CKPT+Live > CKPT LR > CKPT LR+Live.
func TestMechanismDowntimeOrdering(t *testing.T) {
	pts := []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}
	down := map[vm.Mechanism]float64{}
	for _, m := range vm.Mechanisms() {
		cfg := mustConfig(t)
		cfg.Mechanism = m
		r := runScenario(t, singleMarketSet(t, pts, 40*sim.Hour), cfg, 40*sim.Hour)
		down[m] = r.DowntimeSeconds
	}
	// Approximate per-episode downtimes for the 1.4 GB VM:
	//   forced:  bound(3) + eager restore(~87)  vs  bound(3) + lazy(20)
	//   reverse: same via checkpoint            vs  live hand-off (~0.5)
	if !(down[vm.CKPT] > down[vm.CKPTLive] &&
		down[vm.CKPTLive] > down[vm.CKPTLazy] &&
		down[vm.CKPTLazy] > down[vm.CKPTLazyLive]) {
		t.Fatalf("Fig. 7 ordering violated: CKPT=%.1f CKPT+Live=%.1f CKPT LR=%.1f CKPT LR+Live=%.1f",
			down[vm.CKPT], down[vm.CKPTLive], down[vm.CKPTLazy], down[vm.CKPTLazyLive])
	}
	// Live migration removes the voluntary hand-off cost in both restore
	// modes — a large win over eager restores (~90 s), a small one over
	// pre-staged lazy restores (~5 s).
	gapEager := down[vm.CKPT] - down[vm.CKPTLive]
	gapLazy := down[vm.CKPTLazy] - down[vm.CKPTLazyLive]
	if gapEager <= 0 || gapLazy <= 0 {
		t.Fatalf("live migration did not reduce voluntary downtime: %+v", down)
	}
	if gapEager < gapLazy {
		t.Fatalf("eager voluntary hand-offs should cost more than lazy ones: %.1f vs %.1f",
			gapEager, gapLazy)
	}
}

// TestMultiMarketPacking: with a cheaper big server available, the fleet
// packs onto it; when that market spikes, it migrates to the other spot
// market rather than on-demand (Sec. 4.4's planned-migration step).
func TestMultiMarketPacking(t *testing.T) {
	small := home
	large := market.ID{Region: "us-east-1a", Type: "large"}
	end := sim.Time(60 * sim.Hour)
	trS, err := market.NewTrace(small, []market.Point{{T: 0, Price: 0.02}}, end)
	if err != nil {
		t.Fatal(err)
	}
	trL, err := market.NewTrace(large, []market.Point{
		{T: 0, Price: 0.05},
		{T: 15000, Price: 0.40}, // large spikes; small now cheaper (4x0.02=0.08)
		{T: 40000, Price: 0.05},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{trS, trL},
		map[market.ID]float64{small: 0.06, large: 0.24})
	if err != nil {
		t.Fatal(err)
	}

	cfg := mustConfig(t)
	cfg.Service = ServiceSpec{
		VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
		Count: 4,
	}
	cfg.Markets = []market.ID{small, large}

	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, fixedCloudParams())
	s, err := New(prov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(10000)
	// Bootstrapped onto one large server (hourly 0.05 beats 4 smalls at
	// 0.08).
	if s.group == nil || s.group.market != large || len(s.group.insts) != 1 {
		t.Fatalf("expected 1 large server, got %+v", s.group)
	}
	eng.RunUntil(60 * sim.Hour)
	r := s.Report()

	if r.Migrations.Forced != 0 {
		t.Fatalf("high-bid fleet was forced: %+v", r.Migrations)
	}
	// Planned spot->spot move to small, then back to large when it calms.
	if r.Migrations.Planned < 2 {
		t.Fatalf("planned = %d, want >= 2 (large->small->large)", r.Migrations.Planned)
	}
	if r.OnDemandSeconds != 0 {
		t.Fatal("fleet used on-demand despite cheaper spot alternative")
	}
	if r.Cost >= r.BaselineCost {
		t.Fatalf("cost %v >= baseline %v", r.Cost, r.BaselineCost)
	}
}

// TestReportInvariants checks accounting consistency on a busy generated
// universe.
func TestReportInvariants(t *testing.T) {
	mcfg := market.DefaultConfig(77)
	mcfg.Horizon = 12 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Bidding{Reactive, Proactive, PureSpot, OnDemandOnly} {
		cfg := mustConfig(t)
		cfg.Bidding = b
		cfg.Home = market.ID{Region: "us-east-1b", Type: "small"}
		cfg.Markets = []market.ID{cfg.Home}
		r, err := Run(set, cloud.DefaultParams(77), cfg, 12*sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost < 0 || r.BaselineCost <= 0 {
			t.Fatalf("%v: costs: %+v", b, r)
		}
		if r.DowntimeSeconds < 0 || r.DowntimeSeconds > float64(r.Horizon) {
			t.Fatalf("%v: downtime %v out of [0,horizon]", b, r.DowntimeSeconds)
		}
		total := r.SpotSeconds + r.OnDemandSeconds
		if total > float64(r.Horizon)+1 {
			t.Fatalf("%v: placement %v exceeds horizon %v", b, total, r.Horizon)
		}
		if b == OnDemandOnly && (r.SpotSeconds != 0 || r.Migrations.Total() != 0) {
			t.Fatalf("baseline touched spot: %+v", r)
		}
		if b == PureSpot && r.OnDemandSeconds != 0 {
			t.Fatalf("pure spot used on-demand: %+v", r)
		}
		if r.Unavailability() < 0 || r.Unavailability() > 1 {
			t.Fatalf("%v: unavailability %v", b, r.Unavailability())
		}
	}
}

// TestGeneratedUniverseHeadline reproduces the headline claim on one seed:
// proactive hosting costs a small fraction of on-demand with unavailability
// orders of magnitude below pure spot.
func TestGeneratedUniverseHeadline(t *testing.T) {
	mcfg := market.DefaultConfig(101)
	mcfg.Horizon = 30 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t)
	pro, err := Run(set, cloud.DefaultParams(101), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := mustConfig(t)
	cfg2.Bidding = PureSpot
	pure, err := Run(set, cloud.DefaultParams(101), cfg2, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Cost: proactive lands in the paper's 17-33%-of-baseline band
	// (we allow a wider 10-45% band for seed noise).
	nc := pro.NormalizedCost()
	if nc < 0.10 || nc > 0.45 {
		t.Fatalf("proactive normalized cost = %.3f, want ~0.17-0.33", nc)
	}
	// Availability: proactive keeps unavailability tiny; pure spot is
	// orders of magnitude worse.
	if u := pro.Unavailability(); u > 0.001 {
		t.Fatalf("proactive unavailability = %.5f, want < 0.1%%", u)
	}
	if pure.Unavailability() < 5*pro.Unavailability() {
		t.Fatalf("pure spot unavailability %.5f should dwarf proactive %.5f",
			pure.Unavailability(), pro.Unavailability())
	}
}

func TestRunSeedsAveraging(t *testing.T) {
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 4 * sim.Day
	cfg := mustConfig(t)
	rs, err := RunSeedsTracedCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, 4*sim.Day, []int64{1, 2, 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("reports = %d", len(rs))
	}
	avg := metrics.Average(rs)
	if avg.BaselineCost <= 0 || avg.Horizon <= 0 {
		t.Fatalf("bad average: %+v", avg)
	}
	if _, err := RunSeedsTracedCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, 0, nil, 0, nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}
