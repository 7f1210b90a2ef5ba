package sched

import (
	"fmt"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// hostileDays is the length of a torture universe, and of the runs over it.
const hostileDays = 12

// hostileMarketConfig cranks the spike rate far past calibration, to
// nearly constant spikes over a 12-day universe: a torture universe for
// the scheduler's state machine.
func hostileMarketConfig(seed int64) market.Config {
	cfg := market.DefaultConfig(seed)
	cfg.Horizon = hostileDays * sim.Day
	cfg.SpikesPerDay = 60
	return cfg
}

// hostileForcedFloor is, per seed, how many forced migrations the 15
// policy x mechanism runs of TestSchedulerSurvivesHostileMarkets made in
// the earlier torture regime (6 days of 18 spikes a day, 10-minute spikes
// with a tail index of 0.9, 2-minute re-samples with a CV of 0.5). The
// current regime must revoke at least as often.
var hostileForcedFloor = map[int64]int{1: 967, 2: 985, 3: 948}

// checkInvariants asserts the accounting laws every run must satisfy.
func checkInvariants(t *testing.T, label string, r interface {
	NormalizedCost() float64
	Unavailability() float64
}) {
	t.Helper()
	if u := r.Unavailability(); u < 0 || u > 1 {
		t.Errorf("%s: unavailability %v out of [0,1]", label, u)
	}
	if c := r.NormalizedCost(); c < 0 {
		t.Errorf("%s: negative normalized cost %v", label, c)
	}
}

// TestSchedulerSurvivesHostileMarkets runs every policy x mechanism
// combination through torture universes and checks that nothing panics,
// downtime stays within the horizon, placement accounting stays additive,
// and the scheduler's cost never exceeds a sane multiple of the baseline.
func TestSchedulerSurvivesHostileMarkets(t *testing.T) {
	mechanisms := append(vm.Mechanisms(), vm.Naive)
	policies := []Bidding{Reactive, Proactive, PureSpot}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}

	for _, seed := range seeds {
		set, err := market.Generate(hostileMarketConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		forced := 0
		for _, b := range policies {
			for _, m := range mechanisms {
				label := fmt.Sprintf("seed%d/%v/%v", seed, b, m)
				cfg := mustConfig(t)
				cfg.Home = market.ID{Region: "us-east-1b", Type: "medium"}
				cfg.Markets = []market.ID{
					cfg.Home,
					{Region: "us-east-1b", Type: "large"},
					{Region: "us-east-1b", Type: "xlarge"},
				}
				cfg.Bidding = b
				cfg.Mechanism = m

				r, err := Run(set, cloud.DefaultParams(seed), cfg, hostileDays*sim.Day)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				forced += r.Migrations.Forced
				checkInvariants(t, label, r)
				if r.DowntimeSeconds < 0 || r.DowntimeSeconds > float64(r.Horizon) {
					t.Errorf("%s: downtime %v vs horizon %v", label, r.DowntimeSeconds, r.Horizon)
				}
				placed := r.SpotSeconds + r.OnDemandSeconds
				if placed > float64(r.Horizon)+1 {
					t.Errorf("%s: placement %v exceeds horizon %v", label, placed, r.Horizon)
				}
				// Placement plus downtime covers the horizon, within the
				// slack of in-flight transitions (overlap periods count as
				// placed on the old servers until hand-off).
				if placed+r.DowntimeSeconds < float64(r.Horizon)*0.95 {
					t.Errorf("%s: placement %v + downtime %v undershoots horizon %v",
						label, placed, r.DowntimeSeconds, r.Horizon)
				}
				// Even in torture markets, hosting should not cost multiples
				// of on-demand.
				if r.NormalizedCost() > 2 {
					t.Errorf("%s: normalized cost %v", label, r.NormalizedCost())
				}
				if b == PureSpot && r.OnDemandSeconds != 0 {
					t.Errorf("%s: pure spot used on-demand", label)
				}
			}
		}
		if floor := hostileForcedFloor[seed]; forced < floor {
			t.Errorf("seed %d: %d forced migrations, want at least %d", seed, forced, floor)
		}
	}
}

// TestSchedulerStabilityUnderHostileMarkets repeats the torture run with
// stability-aware bidding enabled, which exercises the volatility tracker
// against thousands of price events.
func TestSchedulerStabilityUnderHostileMarkets(t *testing.T) {
	set, err := market.Generate(hostileMarketConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t)
	cfg.Home = market.ID{Region: "us-east-1a", Type: "small"}
	cfg.Markets = nil
	for _, ty := range []market.InstanceType{"small", "medium", "large", "xlarge"} {
		cfg.Markets = append(cfg.Markets, market.ID{Region: "us-east-1a", Type: ty})
	}
	cfg.Service = UnitFleet(4)
	cfg.StabilityPenalty = 1.5
	r, err := Run(set, cloud.DefaultParams(11), cfg, hostileDays*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, "stability-torture", r)
	if r.Migrations.Total() < 0 {
		t.Fatal("negative migration count")
	}
}

// TestDeterministicReplays: the same seed must produce byte-identical
// reports across repeated runs, even in torture universes (the kernel's
// determinism guarantee survives the full stack).
func TestDeterministicReplays(t *testing.T) {
	run := func() string {
		set, err := market.Generate(hostileMarketConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := mustConfig(t)
		cfg.Home = market.ID{Region: "us-west-1a", Type: "small"}
		cfg.Markets = []market.ID{cfg.Home}
		r, err := Run(set, cloud.DefaultParams(5), cfg, hostileDays*sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%.9f|%.3f|%+v", r.Cost, r.DowntimeSeconds, r.Migrations)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic:\n%s\n%s", a, b)
	}
}
