// Package sched implements the paper's primary contribution: a cloud
// scheduler that hosts an always-on service on spot servers, combining
// bidding algorithms (reactive / proactive) with VM migration mechanisms
// (live migration, bounded checkpointing, lazy restore) to minimize both
// hosting cost and service unavailability.
//
// The scheduler runs a single *deployment* — a fleet of identical nested
// VMs packed onto identically-purchased servers — through a state machine
// driven by provider events:
//
//   - price changes trigger revocations (provider side) and inform
//     hour-boundary placement decisions,
//   - revocation warnings trigger forced migrations to on-demand servers
//     within the grace window,
//   - billing-hour boundaries trigger planned migrations (spot -> cheaper
//     spot or on-demand) and reverse migrations (on-demand -> spot).
//
// Policies: OnDemandOnly (the cost baseline), Reactive (bid the on-demand
// price, migrate when revoked), Proactive (bid k x on-demand, migrate
// voluntarily before revocation), and PureSpot (spot only, ride out price
// spikes while down — the Fig. 11 strawman). Multi-market and multi-region
// hosting fall out of the candidate-market list in the config.
package sched

import (
	"fmt"

	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// Bidding selects the bidding algorithm.
type Bidding int

const (
	// OnDemandOnly never touches the spot market: the baseline of
	// Fig. 6(a).
	OnDemandOnly Bidding = iota
	// Reactive bids exactly the on-demand price, so the provider revokes
	// the spot server the moment the spot price exceeds it; every
	// transition to on-demand is a forced migration.
	Reactive
	// Proactive bids BidMultiple x the on-demand price (capped by the
	// provider) and voluntarily migrates near the end of the billing hour
	// once the spot price exceeds the on-demand price; only sharp spikes
	// above the high bid force a migration.
	Proactive
	// PureSpot uses spot servers only (bid = on-demand price): when
	// revoked, the service stays down until the price returns below the
	// bid — the conventional-wisdom strawman of Fig. 11.
	PureSpot
)

// String returns the policy label used in reports.
func (b Bidding) String() string {
	switch b {
	case OnDemandOnly:
		return "on-demand-only"
	case Reactive:
		return "reactive"
	case Proactive:
		return "proactive"
	default:
		return "pure-spot"
	}
}

// ServiceSpec describes the hosted service: Count identical nested VMs of
// the given spec. Each VM occupies VM.Units capacity slots on whatever
// server type hosts it.
type ServiceSpec struct {
	VM    vm.Spec
	Count int
}

// Config configures one scheduler run.
type Config struct {
	// Service to host.
	Service ServiceSpec

	// Home names the service's primary market. Forced migrations always
	// fall back to on-demand servers in the current region; the cost
	// baseline is on-demand servers of the Home type.
	Home market.ID

	// Markets lists the candidate spot markets. A single entry equal to
	// Home gives the single-market scenario of Sec. 4.2/4.3; several
	// types in one region give multi-market (Sec. 4.4); types across
	// regions give multi-region (Sec. 4.5).
	Markets []market.ID

	// Bidding algorithm.
	Bidding Bidding

	// BidMultiple is the proactive bid as a multiple of the on-demand
	// price (the paper uses the provider cap, 4).
	BidMultiple float64

	// Mechanism is the migration mechanism combination.
	Mechanism vm.Mechanism

	// VMParams holds mechanism timing constants.
	VMParams vm.Params

	// Hysteresis is the minimum relative per-unit price improvement
	// required before a voluntary move to another market (prevents
	// thrashing between near-equal markets).
	Hysteresis float64

	// DecisionSlack pads the migration lead time before a billing-hour
	// boundary.
	DecisionSlack sim.Duration

	// StabilityPenalty is the lambda of stability-aware bidding (the
	// paper's stated future work): candidate spot markets are ranked by
	// current price plus lambda times their recent price volatility, so a
	// cheap-but-jumpy market can lose to a slightly pricier stable one.
	// Zero (the default) reproduces the paper's greedy cheapest-price
	// rule.
	StabilityPenalty float64

	// VolatilityHalflife sets how quickly the online volatility estimate
	// forgets old prices (default 12 hours).
	VolatilityHalflife sim.Duration

	// Types catalogs the instance sizes (units, memory). Defaults to
	// market.DefaultTypes.
	Types []market.TypeSpec
}

// DefaultConfig returns a single-market proactive configuration for one
// VM sized to the given home market, using the paper's best mechanism.
func DefaultConfig(home market.ID, types []market.TypeSpec) (Config, error) {
	ts, ok := market.FindType(types, home.Type)
	if !ok {
		return Config{}, fmt.Errorf("sched: unknown instance type %q", home.Type)
	}
	return Config{
		Service: ServiceSpec{
			VM: vm.Spec{
				MemoryGB:      ts.MemoryGB * 0.85, // dom0 keeps some memory (Sec. 6.1)
				DirtyRateMBps: 8,
				DiskGB:        4,
				Units:         ts.Units,
			},
			Count: 1,
		},
		Home:               home,
		Markets:            []market.ID{home},
		Bidding:            Proactive,
		BidMultiple:        4,
		Mechanism:          vm.CKPTLazyLive,
		VMParams:           vm.DefaultParams(),
		Hysteresis:         0.05,
		DecisionSlack:      30,
		VolatilityHalflife: 12 * sim.Hour,
		Types:              types,
	}, nil
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Service.VM.Validate(); err != nil {
		return err
	}
	if c.Service.Count <= 0 {
		return fmt.Errorf("sched: service count must be positive")
	}
	if len(c.Markets) == 0 {
		return fmt.Errorf("sched: no candidate markets")
	}
	if _, ok := market.FindType(c.Types, c.Home.Type); !ok {
		return fmt.Errorf("sched: home type %q not in catalog", c.Home.Type)
	}
	for _, m := range c.Markets {
		ts, ok := market.FindType(c.Types, m.Type)
		if !ok {
			return fmt.Errorf("sched: market type %q not in catalog", m.Type)
		}
		if ts.Units < c.Service.VM.Units {
			return fmt.Errorf("sched: market %s (%d units) cannot hold a %d-unit VM",
				m, ts.Units, c.Service.VM.Units)
		}
	}
	if c.Bidding == Proactive && c.BidMultiple <= 1 {
		return fmt.Errorf("sched: proactive BidMultiple must exceed 1, got %v", c.BidMultiple)
	}
	if c.Hysteresis < 0 || c.Hysteresis >= 1 {
		return fmt.Errorf("sched: hysteresis %v out of range [0,1)", c.Hysteresis)
	}
	if c.StabilityPenalty < 0 {
		return fmt.Errorf("sched: negative stability penalty %v", c.StabilityPenalty)
	}
	if c.StabilityPenalty > 0 && c.VolatilityHalflife <= 0 {
		return fmt.Errorf("sched: stability-aware bidding needs a positive VolatilityHalflife")
	}
	return nil
}

// typeOf returns the catalog entry for an instance type; the config must
// have been validated.
func (c Config) typeOf(t market.InstanceType) market.TypeSpec {
	ts, ok := market.FindType(c.Types, t)
	if !ok {
		panic(fmt.Sprintf("sched: unvalidated type %q", t))
	}
	return ts
}

// serversFor returns how many servers of type t the service needs.
func (c Config) serversFor(t market.InstanceType) int {
	per := c.typeOf(t).Units / c.Service.VM.Units
	if per < 1 {
		per = 1
	}
	n := (c.Service.Count + per - 1) / per
	return n
}
