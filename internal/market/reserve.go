package market

import (
	"fmt"
	"math"

	"spothost/internal/randx"
	"spothost/internal/sim"
)

// The banded-reserve regime is the alternative price model of Agmon
// Ben-Yehuda et al., "Deconstructing Amazon EC2 Spot Instance Pricing"
// (2013): in the 2010-2012 era, spot prices were found to be drawn from a
// banded dynamic reserve price — an AR(1)-persistent draw inside
// [FloorRatio, CeilRatio] x on-demand, updated at random intervals —
// rather than from a real supply/demand market. These constants calibrate
// it to the 2013 study.
const (
	// FloorRatio and CeilRatio bound the reserve band as fractions of the
	// on-demand price.
	FloorRatio float64 = 0.35
	CeilRatio  float64 = 0.60
	// ChangeMean is the mean interval between reserve updates.
	ChangeMean sim.Duration = 45 * sim.Minute
	// Persistence is the AR(1) coefficient of consecutive draws in (0,1):
	// high values produce slowly wandering prices.
	Persistence float64 = 0.7
)

// GenerateReserve produces a Set under the banded-reserve regime for every
// default region and every type in cfg. cfg.SpikesPerDay layers demand
// spikes on top of the band, with Generate's spike magnitude and duration;
// 0 reproduces the pure 2010-2012 regime.
//
// The generator exists as a robustness check: the paper's conclusions
// should (and do) degrade gracefully under it — with no spikes there are
// no revocations, so proactive and reactive behave identically and pure
// spot becomes safe; re-adding spikes restores the paper's separations.
func GenerateReserve(cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	onDemand := map[ID]float64{}
	var traces []*Trace
	for _, rs := range DefaultRegions() {
		for _, ts := range cfg.Types {
			id := ID{Region: rs.Name, Type: ts.Name}
			od := OnDemandPrice(rs, ts)
			onDemand[id] = od
			rng := randx.Derive(cfg.Seed, "reserve/"+id.String())

			var shocks []shock
			if cfg.SpikesPerDay > 0 {
				shocks = poissonShocks(rng.Derive("shocks"), cfg.Horizon, cfg.SpikesPerDay*rs.Volatility)
			}

			points := synthesizeReserve(rng, cfg.Horizon, od, shocks)
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
func synthesizeReserve(rng *randx.Stream, horizon sim.Duration, od float64, shocks []shock) []Point {
	lo, hi := FloorRatio*od, CeilRatio*od
	mid := (lo + hi) / 2
	halfBand := (hi - lo) / 2

	// The latent AR(1) state wanders in roughly [-1, 1].
	x := rng.Uniform(-1, 1)
	ps := Persistence
	return piecewise(rng, ChangeMean, shocks, horizon, func(t sim.Time, resample bool, shockRatio float64) float64 {
		if resample {
			x = ps*x + math.Sqrt(1-ps*ps)*rng.Uniform(-1, 1)
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
