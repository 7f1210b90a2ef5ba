package market

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"spothost/internal/randx"
	"spothost/internal/sim"
)

// Config parameterizes the synthetic price generator. DefaultConfig returns
// the calibration used throughout the experiments; tests tweak individual
// fields.
type Config struct {
	Regions []RegionSpec
	Types   []TypeSpec
	Horizon sim.Duration // trace length, seconds
	Seed    int64

	// Base-level process: a slow AR(1) wobble in log space around
	// BaseRatio x on-demand, re-sampled every ~StepMean seconds.
	StepMean sim.Duration
	BaseCV   float64 // log-space stddev of the wobble
	BaseAR   float64 // AR(1) coefficient per step, in (0,1)

	// Spike process: Poisson arrivals at SpikesPerDay x region volatility;
	// each spike lifts the price to ratio x on-demand for an Exp(SpikeMeanDur)
	// interval, ratio drawn from BoundedPareto(SpikeMin, SpikeAlpha, SpikeMax).
	SpikesPerDay float64
	SpikeMeanDur sim.Duration
	SpikeMin     float64
	SpikeAlpha   float64
	SpikeMax     float64

	// Shared-shock structure controlling cross-market correlation.
	// A fraction of each market's spikes come from a per-region shock
	// process (shared by markets in the region with RegionShareProb) and a
	// global process (shared across regions with GlobalShareProb).
	RegionShareProb float64
	GlobalShareProb float64

	// Factor loadings of the base-level wobble on shared components:
	// each market's log-price wobble is a weighted mix of a global factor,
	// a per-region factor and an idiosyncratic term. These produce the
	// weak-but-nonzero Pearson correlations of Fig. 8(b) and Fig. 9(b);
	// squares must sum to at most 1 (the remainder is idiosyncratic).
	GlobalBaseWeight float64
	RegionBaseWeight float64
}

// DefaultConfig returns the calibrated generator configuration for a
// 30-day universe over the default regions and types.
func DefaultConfig(seed int64) Config {
	return Config{
		Regions:         DefaultRegions(),
		Types:           DefaultTypes(),
		Horizon:         30 * sim.Day,
		Seed:            seed,
		StepMean:        10 * sim.Minute,
		BaseCV:          0.22,
		BaseAR:          0.97,
		SpikesPerDay:    2.2,
		SpikeMeanDur:    28 * sim.Minute,
		SpikeMin:        0.35,
		SpikeAlpha:      1.35,
		SpikeMax:        15,
		RegionShareProb: 0.5,
		GlobalShareProb: 0.25,

		GlobalBaseWeight: 0.28,
		RegionBaseWeight: 0.45,
	}
}

// Validate reports configuration errors early with actionable messages.
func (c Config) Validate() error {
	switch {
	case len(c.Regions) == 0:
		return fmt.Errorf("market: config has no regions")
	case len(c.Types) == 0:
		return fmt.Errorf("market: config has no types")
	case c.Horizon <= sim.Hour:
		return fmt.Errorf("market: horizon %v too short", c.Horizon)
	case c.StepMean <= 0:
		return fmt.Errorf("market: StepMean must be positive")
	case c.BaseAR <= 0 || c.BaseAR >= 1:
		return fmt.Errorf("market: BaseAR must be in (0,1)")
	case c.SpikeMin <= 0 || c.SpikeMax < c.SpikeMin:
		return fmt.Errorf("market: invalid spike ratio bounds [%v,%v]", c.SpikeMin, c.SpikeMax)
	case c.SpikeAlpha <= 0:
		return fmt.Errorf("market: SpikeAlpha must be positive")
	case c.GlobalBaseWeight < 0 || c.RegionBaseWeight < 0 ||
		c.GlobalBaseWeight*c.GlobalBaseWeight+c.RegionBaseWeight*c.RegionBaseWeight > 1:
		return fmt.Errorf("market: base factor weights invalid (squares must sum to <= 1)")
	}
	return nil
}

// factorSeries is a shared AR(1) wobble sampled on a fixed grid; Value
// interpolates piecewise-constantly so every market sees the same factor
// path regardless of its own step times.
type factorSeries struct {
	step sim.Duration
	vals []float64
}

func newFactorSeries(rng *randx.Stream, horizon sim.Duration, step sim.Duration, ar float64) *factorSeries {
	n := int(horizon/step) + 2
	vals := make([]float64, n)
	vals[0] = rng.NormFloat64()
	for i := 1; i < n; i++ {
		vals[i] = ar*vals[i-1] + math.Sqrt(1-ar*ar)*rng.NormFloat64()
	}
	return &factorSeries{step: step, vals: vals}
}

func (f *factorSeries) Value(t sim.Time) float64 {
	i := int(t / f.step)
	if i < 0 {
		i = 0
	}
	if i >= len(f.vals) {
		i = len(f.vals) - 1
	}
	return f.vals[i]
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
// distribution scaled by severity.
func poissonShocks(rng *randx.Stream, cfg Config, ratePerDay, severity float64) []shock {
	if ratePerDay <= 0 {
		return nil
	}
	var out []shock
	meanGap := sim.Day / ratePerDay
	t := rng.Exp(meanGap)
	for t < cfg.Horizon {
		dur := rng.Exp(cfg.SpikeMeanDur)
		if dur < sim.Minute {
			dur = sim.Minute
		}
		ratio := rng.BoundedPareto(cfg.SpikeMin, cfg.SpikeAlpha, cfg.SpikeMax) * severity
		out = append(out, shock{start: t, end: math.Min(t+dur, cfg.Horizon), ratio: ratio})
		t += rng.Exp(meanGap)
	}
	return out
}

// Generate produces a Set of synthetic traces for every (region, type)
// pair in the config. Generation is deterministic in cfg.Seed.
func Generate(cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Global shocks, visible to every market with GlobalShareProb.
	globalRng := randx.Derive(cfg.Seed, "shock/global")
	global := poissonShocks(globalRng, cfg, cfg.SpikesPerDay*0.6, 1)
	globalFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/global"),
		cfg.Horizon, cfg.StepMean, cfg.BaseAR)

	onDemand := map[ID]float64{}
	var traces []*Trace
	for _, rs := range cfg.Regions {
		// Region-level shocks shared by markets in the region.
		regionRng := randx.Derive(cfg.Seed, "shock/region/"+string(rs.Name))
		regional := poissonShocks(regionRng, cfg, cfg.SpikesPerDay*rs.Volatility, 1)
		regionFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/region/"+string(rs.Name)),
			cfg.Horizon, cfg.StepMean, cfg.BaseAR)

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
				if rng.Bernoulli(cfg.RegionShareProb) {
					sh.ratio *= rng.LognormalMeanCV(1, 0.25)
					shocks = append(shocks, sh)
				}
			}
			for _, sh := range global {
				if rng.Bernoulli(cfg.GlobalShareProb) {
					sh.ratio *= rng.LognormalMeanCV(1, 0.25)
					shocks = append(shocks, sh)
				}
			}
			localRate := cfg.SpikesPerDay * rs.Volatility * (1 - cfg.RegionShareProb)
			shocks = append(shocks, poissonShocks(rng.Derive("local"), cfg, localRate, 1)...)
			// Three start-sorted runs, put in start order for the shock
			// sweep. The order of equal starts cannot show: the sweep takes
			// a max over active ratios, and two equal starts inside the
			// horizon are a tied boundary that NewTrace rejects.
			slices.SortFunc(shocks, func(a, b shock) int { return cmp.Compare(a.start, b.start) })

			points := synthesize(rng.Derive("base"), cfg, rs, od, shocks, globalFactor, regionFactor)
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
func synthesize(rng *randx.Stream, cfg Config, rs RegionSpec, od float64, shocks []shock,
	globalFactor, regionFactor *factorSeries) []Point {
	// Base-level wobble in log space, region-scaled; a factor model mixes
	// the shared global/region components with an idiosyncratic AR(1).
	sigma := cfg.BaseCV * math.Sqrt(rs.Volatility)
	gw, rw := cfg.GlobalBaseWeight, cfg.RegionBaseWeight
	lw := math.Sqrt(1 - gw*gw - rw*rw)
	wLocal := rng.NormFloat64()
	return piecewise(rng, cfg.StepMean, shocks, cfg.Horizon, func(t sim.Time, resample bool, shockRatio float64) float64 {
		if resample {
			// Advance the idiosyncratic AR(1) wobble.
			wLocal = cfg.BaseAR*wLocal + math.Sqrt(1-cfg.BaseAR*cfg.BaseAR)*rng.NormFloat64()
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
