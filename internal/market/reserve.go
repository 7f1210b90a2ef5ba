package market

import (
	"fmt"
	"math"

	"spothost/internal/randx"
	"spothost/internal/sim"
)

// ReserveConfig parameterizes the alternative price generator modelled on
// Agmon Ben-Yehuda et al., "Deconstructing Amazon EC2 Spot Instance
// Pricing" (2013): in the 2010-2012 era, spot prices were found to be
// drawn from a banded dynamic reserve price — an AR(1)-persistent draw
// inside [Floor, Ceiling] x on-demand, updated at random intervals —
// rather than from a real supply/demand market. An optional spike overlay
// adds the post-2012 demand-driven excursions.
//
// The generator exists as a robustness check: the paper's conclusions
// should (and do) degrade gracefully under it — with no spikes there are
// no revocations, so proactive and reactive behave identically and pure
// spot becomes safe; re-adding spikes restores the paper's separations.
type ReserveConfig struct {
	Regions []RegionSpec
	Types   []TypeSpec
	Horizon sim.Duration
	Seed    int64

	// FloorRatio and CeilRatio bound the reserve band as fractions of the
	// on-demand price (the 2013 study measured bands like [0.35, 0.60]).
	FloorRatio float64
	CeilRatio  float64
	// ChangeMean is the mean interval between reserve updates.
	ChangeMean sim.Duration
	// Persistence is the AR(1) coefficient of consecutive draws in (0,1):
	// high values produce slowly wandering prices.
	Persistence float64

	// SpikesPerDay layers demand spikes on top of the band (0 disables,
	// reproducing the pure 2010-2012 regime). Spike magnitude and
	// duration reuse the main generator's calibration.
	SpikesPerDay float64
}

// DefaultReserveConfig returns the banded regime measured by the 2013
// study, without spikes.
func DefaultReserveConfig(seed int64) ReserveConfig {
	return ReserveConfig{
		Regions:     DefaultRegions(),
		Types:       DefaultTypes(),
		Horizon:     30 * sim.Day,
		Seed:        seed,
		FloorRatio:  0.35,
		CeilRatio:   0.60,
		ChangeMean:  time45min,
		Persistence: 0.7,
	}
}

const time45min = 45 * sim.Minute

// Validate reports configuration errors.
func (c ReserveConfig) Validate() error {
	switch {
	case len(c.Regions) == 0 || len(c.Types) == 0:
		return fmt.Errorf("market: reserve config needs regions and types")
	case c.Horizon <= sim.Hour:
		return fmt.Errorf("market: reserve horizon %v too short", c.Horizon)
	case c.FloorRatio <= 0 || c.CeilRatio <= c.FloorRatio:
		return fmt.Errorf("market: reserve band [%v,%v] invalid", c.FloorRatio, c.CeilRatio)
	case c.ChangeMean <= 0:
		return fmt.Errorf("market: ChangeMean must be positive")
	case c.Persistence <= 0 || c.Persistence >= 1:
		return fmt.Errorf("market: Persistence must be in (0,1)")
	case c.SpikesPerDay < 0:
		return fmt.Errorf("market: negative spike rate")
	}
	return nil
}

// GenerateReserve produces a Set under the banded-reserve regime.
func GenerateReserve(cfg ReserveConfig) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Optional spike overlay reuses the main generator's shock machinery.
	var shockCfg Config
	if cfg.SpikesPerDay > 0 {
		shockCfg = DefaultConfig(cfg.Seed)
		shockCfg.Horizon = cfg.Horizon
		shockCfg.SpikesPerDay = cfg.SpikesPerDay
	}

	onDemand := map[ID]float64{}
	var traces []*Trace
	for _, rs := range cfg.Regions {
		for _, ts := range cfg.Types {
			id := ID{Region: rs.Name, Type: ts.Name}
			od := OnDemandPrice(rs, ts)
			onDemand[id] = od
			rng := randx.Derive(cfg.Seed, "reserve/"+id.String())

			var shocks []shock
			if cfg.SpikesPerDay > 0 {
				shocks = poissonShocks(rng.Derive("shocks"), shockCfg,
					cfg.SpikesPerDay*rs.Volatility, 1)
			}

			points := synthesizeReserve(rng, cfg, od, shocks)
			tr, err := NewTrace(id, points, cfg.Horizon)
			if err != nil {
				return nil, fmt.Errorf("market: reserve %s: %w", id, err)
			}
			traces = append(traces, tr)
		}
	}
	return NewSet(traces, onDemand)
}

// synthesizeReserve draws the banded AR(1) reserve series for one market,
// clamping to the band and overlaying any demand spikes.
func synthesizeReserve(rng *randx.Stream, cfg ReserveConfig, od float64, shocks []shock) []Point {
	lo, hi := cfg.FloorRatio*od, cfg.CeilRatio*od
	mid := (lo + hi) / 2
	halfBand := (hi - lo) / 2

	// The latent AR(1) state wanders in roughly [-1, 1].
	x := rng.Uniform(-1, 1)
	return piecewise(rng, cfg.ChangeMean, shocks, cfg.Horizon, func(t sim.Time, resample bool, shockRatio float64) float64 {
		if resample {
			x = cfg.Persistence*x + math.Sqrt(1-cfg.Persistence*cfg.Persistence)*rng.Uniform(-1, 1)
		}
		p := mid + halfBand*x
		if p < lo {
			p = lo
		}
		if p > hi {
			p = hi
		}
		// Scaling by od > 0 keeps order, so the top ratio gives the top
		// spike price.
		if sp := shockRatio * od; sp > p {
			p = sp
		}
		return p
	})
}
