package market

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"spothost/internal/randx"
	"spothost/internal/sim"
)

// Config selects a synthetic universe: its instance types over the
// default regions, its length, its seed and its spike rate. Generate and
// GenerateReserve both take it, so a cache tells their universes apart by
// generator kind alone. DefaultConfig returns the configuration used
// throughout the experiments.
//
// The rest of the price process is calibration that no experiment
// varies, fixed as package constants:
//
//   - StepMean, BaseCV and BaseAR: the base level, a slow AR(1) wobble in
//     log space around each region's BaseRatio x on-demand;
//   - SpikeMeanDur, SpikeMin, SpikeAlpha and SpikeMax: spike duration and
//     bounded-Pareto magnitude;
//   - RegionShareProb and GlobalShareProb: how often a market adopts a
//     regional or global shock, the spikes' cross-market correlation;
//   - GlobalBaseWeight and RegionBaseWeight: the base wobble's loadings on
//     shared factors, its cross-market correlation.
//
// GenerateReserve's banded regime has its own constants: FloorRatio,
// CeilRatio, ChangeMean and Persistence.
type Config struct {
	Types   []TypeSpec
	Horizon sim.Duration // trace length, seconds
	Seed    int64

	// SpikesPerDay is the daily demand-spike arrival rate, scaled by each
	// region's volatility. Each spike lifts the price to ratio x on-demand
	// for an Exp(SpikeMeanDur) interval, ratio drawn from
	// BoundedPareto(SpikeMin, SpikeAlpha, SpikeMax). 0 disables spikes.
	SpikesPerDay float64
}

// Calibration of Generate's price process (see Config).
const (
	// StepMean is the mean interval between re-samples of the base level.
	StepMean sim.Duration = 10 * sim.Minute
	// BaseCV is the log-space stddev of the base-level wobble.
	BaseCV float64 = 0.22
	// BaseAR is the wobble's AR(1) coefficient per step, in (0,1).
	BaseAR float64 = 0.97

	// SpikeMeanDur is the mean spike duration.
	SpikeMeanDur sim.Duration = 28 * sim.Minute
	// SpikeMin, SpikeAlpha and SpikeMax parameterize the bounded-Pareto
	// spike ratio to on-demand: its floor, tail index and cap.
	SpikeMin   float64 = 0.35
	SpikeAlpha float64 = 1.35
	SpikeMax   float64 = 15

	// RegionShareProb is the chance a market adopts each shock of its
	// region's shared shock process; GlobalShareProb is the chance it
	// adopts each shock of the global one.
	RegionShareProb float64 = 0.5
	GlobalShareProb float64 = 0.25

	// GlobalBaseWeight and RegionBaseWeight are the factor loadings of the
	// base-level wobble on a global and a per-region factor; the rest is
	// idiosyncratic. They produce the weak-but-nonzero Pearson
	// correlations of Fig. 8(b) and Fig. 9(b). Their squares sum to at
	// most 1.
	GlobalBaseWeight float64 = 0.28
	RegionBaseWeight float64 = 0.45
)

// DefaultConfig returns the generator configuration for a 30-day universe
// over the default types.
func DefaultConfig(seed int64) Config {
	return Config{
		Types:        DefaultTypes(),
		Horizon:      30 * sim.Day,
		Seed:         seed,
		SpikesPerDay: 2.2,
	}
}

// MaxHorizon is the longest universe either generator builds. The
// generators' work and memory grow with the horizon (a factor series
// sampled every StepMean, a shock stream drawn to the end), so an
// unbounded one lets a single flag or scenario field exhaust memory. A
// year is three times the longest horizon any experiment, example or test
// uses (120 days) and four times the HTTP API's 90-day request cap.
const MaxHorizon sim.Duration = 365 * sim.Day

// Validate reports configuration errors early with actionable messages.
// The negated comparisons reject NaN too.
func (c Config) Validate() error {
	switch {
	case len(c.Types) == 0:
		return fmt.Errorf("market: config has no types")
	case !(c.Horizon > sim.Hour && c.Horizon <= MaxHorizon):
		return fmt.Errorf("market: horizon %v must be longer than an hour and at most %v", c.Horizon, MaxHorizon)
	case !(c.SpikesPerDay >= 0):
		return fmt.Errorf("market: spike rate %v is not a non-negative number", c.SpikesPerDay)
	}
	return nil
}

// factorSeries is a shared AR(1) wobble sampled every StepMean; Value
// interpolates piecewise-constantly so every market sees the same factor
// path regardless of its own step times.
type factorSeries []float64

func newFactorSeries(rng *randx.Stream, horizon sim.Duration) factorSeries {
	n := int(horizon/StepMean) + 2
	ar := BaseAR
	vals := make(factorSeries, n)
	vals[0] = rng.NormFloat64()
	for i := 1; i < n; i++ {
		vals[i] = ar*vals[i-1] + math.Sqrt(1-ar*ar)*rng.NormFloat64()
	}
	return vals
}

func (f factorSeries) Value(t sim.Time) float64 {
	i := int(t / StepMean)
	if i < 0 {
		i = 0
	}
	if i >= len(f) {
		i = len(f) - 1
	}
	return f[i]
}

// shock is one external demand event: while active it lifts the market
// price to ratio x on-demand.
type shock struct {
	start sim.Time
	end   sim.Time
	ratio float64 // multiple of the on-demand price
}

// poissonShocks draws shock arrivals, in start order, over [0, horizon) at
// the given daily rate. Ratios come from the bounded-Pareto magnitude
// distribution.
func poissonShocks(rng *randx.Stream, horizon sim.Duration, ratePerDay float64) []shock {
	if ratePerDay <= 0 {
		return nil
	}
	var out []shock
	meanGap := sim.Day / ratePerDay
	t := rng.Exp(meanGap)
	for t < horizon {
		dur := rng.Exp(SpikeMeanDur)
		if dur < sim.Minute {
			dur = sim.Minute
		}
		ratio := rng.BoundedPareto(SpikeMin, SpikeAlpha, SpikeMax)
		out = append(out, shock{start: t, end: math.Min(t+dur, horizon), ratio: ratio})
		t += rng.Exp(meanGap)
	}
	return out
}

// Generate produces a Set of synthetic traces for every default region and
// every type in the config. Generation is deterministic in cfg.Seed.
func Generate(cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Global shocks, visible to every market with GlobalShareProb.
	globalRng := randx.Derive(cfg.Seed, "shock/global")
	global := poissonShocks(globalRng, cfg.Horizon, cfg.SpikesPerDay*0.6)
	globalFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/global"), cfg.Horizon)
	localShare := 1 - RegionShareProb

	onDemand := map[ID]float64{}
	var traces []*Trace
	for _, rs := range DefaultRegions() {
		// Region-level shocks shared by markets in the region.
		regionRng := randx.Derive(cfg.Seed, "shock/region/"+string(rs.Name))
		regional := poissonShocks(regionRng, cfg.Horizon, cfg.SpikesPerDay*rs.Volatility)
		regionFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/region/"+string(rs.Name)), cfg.Horizon)

		for _, ts := range cfg.Types {
			id := ID{Region: rs.Name, Type: ts.Name}
			od := OnDemandPrice(rs, ts)
			onDemand[id] = od
			rng := randx.Derive(cfg.Seed, "market/"+id.String())

			// Assemble this market's shocks: adopted regional + global
			// shocks (with a market-specific severity twist so shared
			// spikes are correlated but not identical) plus local-only
			// arrivals topping the rate up to SpikesPerDay*Volatility.
			var shocks []shock
			for _, sh := range regional {
				if rng.Bernoulli(RegionShareProb) {
					sh.ratio *= rng.LognormalMeanCV(1, 0.25)
					shocks = append(shocks, sh)
				}
			}
			for _, sh := range global {
				if rng.Bernoulli(GlobalShareProb) {
					sh.ratio *= rng.LognormalMeanCV(1, 0.25)
					shocks = append(shocks, sh)
				}
			}
			localRate := cfg.SpikesPerDay * rs.Volatility * localShare
			shocks = append(shocks, poissonShocks(rng.Derive("local"), cfg.Horizon, localRate)...)
			// Three start-sorted runs, put in start order for the shock
			// sweep. The order of equal starts cannot show: the sweep takes
			// a max over active ratios, and two equal starts inside the
			// horizon are a tied boundary that NewTrace rejects.
			slices.SortFunc(shocks, func(a, b shock) int { return cmp.Compare(a.start, b.start) })

			points := synthesize(rng.Derive("base"), cfg.Horizon, rs, od, shocks, globalFactor, regionFactor)
			tr, err := NewTrace(id, points, cfg.Horizon)
			if err != nil {
				return nil, fmt.Errorf("market: generating %s: %w", id, err)
			}
			traces = append(traces, tr)
		}
	}
	return NewSetTyped(traces, onDemand, cfg.Types)
}

// synthesize builds the piecewise-constant price series for one market
// from its base-level factor-model wobble and its shock list, which must
// be sorted by start.
func synthesize(rng *randx.Stream, horizon sim.Duration, rs RegionSpec, od float64, shocks []shock,
	globalFactor, regionFactor factorSeries) []Point {
	// Base-level wobble in log space, region-scaled; a factor model mixes
	// the shared global/region components with an idiosyncratic AR(1).
	sigma := BaseCV * math.Sqrt(rs.Volatility)
	gw, rw, ar := GlobalBaseWeight, RegionBaseWeight, BaseAR
	lw := math.Sqrt(1 - gw*gw - rw*rw)
	wLocal := rng.NormFloat64()
	return piecewise(rng, StepMean, shocks, horizon, func(t sim.Time, resample bool, shockRatio float64) float64 {
		if resample {
			// Advance the idiosyncratic AR(1) wobble.
			wLocal = ar*wLocal + math.Sqrt(1-ar*ar)*rng.NormFloat64()
		}
		w := sigma * (gw*globalFactor.Value(t) + rw*regionFactor.Value(t) + lw*wLocal)
		b := rs.BaseRatio * od * math.Exp(w-sigma*sigma/2)
		if b < 0.001 {
			b = 0.001
		}
		if shockRatio > 0 {
			// During a shock the market clears at the shock level, but
			// never below the prevailing base price.
			p := shockRatio * od
			if p < b {
				p = b
			}
			return p
		}
		return b
	})
}

// piecewise lays out one market's price points, shared by both generators.
// It first draws from rng the times, Exp(mean) apart, at which the market
// re-samples its latent price state; price may draw from rng after that.
// There is a point at 0 and one at every boundary strictly inside
// (0, horizon): each re-sample time and each start and end of shocks, in
// ascending order. price gives the point's price from its time, whether it
// is a re-sample (price advances its latent state first) and the highest
// ratio among the shocks active then (0 if none).
//
// The re-sample times are drawn in order and shocks are sorted by start,
// so only the shock edges need sorting; a two-pointer merge does the rest,
// and a sweep over shocks in start order keeps the active set. A max does
// not depend on order, and two boundaries at one time inside the horizon
// are rejected by NewTrace, so the points equal a full sort of all
// boundaries.
func piecewise(rng *randx.Stream, mean sim.Duration, shocks []shock, horizon sim.Time,
	price func(t sim.Time, resample bool, shockRatio float64) float64) []Point {
	steps := make([]sim.Time, 0, int(horizon/mean)+1)
	for t := rng.Exp(mean); t < horizon; t += rng.Exp(mean) {
		steps = append(steps, t)
	}
	edges := make([]sim.Time, 0, 2*len(shocks))
	for _, sh := range shocks {
		edges = append(edges, sh.start, sh.end)
	}
	slices.Sort(edges)

	var active []shock // admitted shocks that had not ended at the last query
	admitted := 0
	shockRatio := func(t sim.Time) float64 {
		for admitted < len(shocks) && shocks[admitted].start <= t {
			active = append(active, shocks[admitted])
			admitted++
		}
		r := 0.0
		live := active[:0]
		for _, sh := range active {
			if sh.end <= t {
				continue // times only grow, so an ended shock never returns
			}
			live = append(live, sh)
			if sh.ratio > r {
				r = sh.ratio
			}
		}
		active = live
		return r
	}

	points := make([]Point, 0, len(steps)+len(edges)+1)
	points = append(points, Point{T: 0, Price: price(0, false, shockRatio(0))})
	i, j := 0, 0
	for i < len(steps) || j < len(edges) {
		var t sim.Time
		resample := j == len(edges) || (i < len(steps) && steps[i] <= edges[j])
		if resample {
			t = steps[i]
			i++
		} else {
			t = edges[j]
			j++
		}
		if t <= 0 || t >= horizon {
			continue
		}
		points = append(points, Point{T: t, Price: price(t, resample, shockRatio(t))})
	}
	return points
}
