// Package cloud simulates an EC2-like infrastructure cloud: spot and
// on-demand instance lifecycles, bid-indexed revocation with a two-minute
// grace warning, sampled allocation latencies, hourly billing with the
// 2015 EC2 partial-hour rules.
//
// The provider is driven by a sim.Engine and a market.Set of price traces;
// everything the paper's cloud scheduler can observe on real EC2 — prices,
// allocation delays, revocation warnings, bills — is reproduced here with
// the same semantics.
package cloud

import (
	"spothost/internal/market"
	"spothost/internal/sim"
)

// Params configures provider behaviour. DefaultParams matches the paper's
// measurements (Table 1) and the EC2 policies it describes.
type Params struct {
	// GracePeriod is the warning-to-termination window on revocation.
	// Amazon gives "an explicit two minute warning prior to revoking a
	// spot server".
	GracePeriod sim.Duration

	// BidCap is the maximum allowed bid as a multiple of the on-demand
	// price ("the largest bid price currently allowed by Amazon is four
	// times the on-demand price").
	BidCap float64

	// Startup latency means by region class (Table 1), plus the sampling
	// coefficient of variation. Lookups fall back to DefaultStartupClass.
	OnDemandStartupMean map[string]sim.Duration
	SpotStartupMean     map[string]sim.Duration
	StartupCV           float64

	Seed int64
}

// DefaultStartupClass is the fallback key for regions absent from the
// startup maps.
const DefaultStartupClass = "default"

// DefaultParams returns parameters calibrated to Table 1 of the paper:
// on-demand servers allocate in ~1.5 minutes, spot servers in 3.5-4.5
// minutes, varying slightly by region.
func DefaultParams(seed int64) Params {
	return Params{
		GracePeriod: 2 * sim.Minute,
		BidCap:      4,
		OnDemandStartupMean: map[string]sim.Duration{
			"us-east-1":         94.85,
			"us-west-1":         93.63,
			"eu-west-1":         98.08,
			DefaultStartupClass: 95,
		},
		SpotStartupMean: map[string]sim.Duration{
			"us-east-1":         281.47,
			"us-west-1":         219.77,
			"eu-west-1":         233.37,
			DefaultStartupClass: 240,
		},
		StartupCV: 0.25,
		Seed:      seed,
	}
}

// Seeded returns the inputs of one seeded run: seed's universe of mc,
// drawn from the process-wide market.SharedCache, and p with its seed set
// to match. Every multi-seed run grid builds its cells this way, so the
// same seed always pairs the same prices with the same provider draws.
func Seeded(mc market.Config, p Params, seed int64) (*market.Set, Params, error) {
	mc.Seed = seed
	p.Seed = seed
	set, err := market.SharedCache().Generate(mc)
	return set, p, err
}

// StartupClass maps an availability-zone-style region name ("us-east-1a")
// to its startup-latency class ("us-east-1"). It is market.RegionClass,
// re-exported under the name the latency tables use.
func StartupClass(r market.Region) string {
	return market.RegionClass(r)
}

// onDemandStartup returns the mean on-demand allocation latency for r.
func (p Params) onDemandStartup(r market.Region) sim.Duration {
	if m, ok := p.OnDemandStartupMean[StartupClass(r)]; ok {
		return m
	}
	return p.OnDemandStartupMean[DefaultStartupClass]
}

// spotStartup returns the mean spot allocation latency for r.
func (p Params) spotStartup(r market.Region) sim.Duration {
	if m, ok := p.SpotStartupMean[StartupClass(r)]; ok {
		return m
	}
	return p.SpotStartupMean[DefaultStartupClass]
}
