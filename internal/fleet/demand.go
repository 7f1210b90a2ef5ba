package fleet

import (
	"fmt"
	"math"

	"spothost/internal/randx"
	"spothost/internal/sim"
)

// Demand is a deterministic load trace: At returns the offered load
// (concurrent users / emulated browsers) at virtual time t. Implementations
// must be safe for concurrent use — one Demand is typically shared by every
// (strategy, seed) cell of a parallel fleet experiment.
type Demand interface {
	At(t sim.Time) float64
}

// ConstantDemand is a flat load trace.
type ConstantDemand float64

// At implements Demand.
func (d ConstantDemand) At(sim.Time) float64 { return float64(d) }

// The shape of the diurnal demand curve.
const (
	// peakStartHour and peakEndHour bound the daily peak window, in hours
	// of the day [0, 24); rampHours is the width of the smooth shoulder on
	// each side.
	peakStartHour float64 = 10
	peakEndHour   float64 = 18
	rampHours     float64 = 2
	// noiseCV is the coefficient of variation of the lognormal noise
	// factor; noiseAR is its per-step AR(1) coefficient (step = 30 min).
	noiseCV float64 = 0.10
	noiseAR float64 = 0.9
)

// DiurnalConfig parameterizes a tracegen-style synthetic demand curve: a
// daily base/peak cycle with smooth shoulders, modulated by a slowly
// wandering AR(1) noise factor — the fleet-layer analogue of the market
// generator's base-price wobble.
type DiurnalConfig struct {
	// Base and Peak are the off-peak and on-peak loads.
	Base float64
	Peak float64
	// Horizon bounds the precomputed noise series; At clamps beyond it.
	Horizon sim.Duration
	Seed    int64
}

// DefaultDiurnalConfig returns a modest e-commerce-style curve: 12
// concurrent users off-peak, 48 during the 10:00-18:00 peak, with ~10 %
// noise.
func DefaultDiurnalConfig(horizon sim.Duration, seed int64) DiurnalConfig {
	return DiurnalConfig{
		Base:    12,
		Peak:    48,
		Horizon: horizon,
		Seed:    seed,
	}
}

// DiurnalDemand is the precomputed curve; construct with NewDiurnalDemand.
// At is a pure function of t, so a single instance may be shared across
// concurrent simulation cells.
type DiurnalDemand struct {
	cfg   DiurnalConfig
	step  sim.Duration
	noise []float64 // lognormal multipliers on the precomputed grid
}

// NewDiurnalDemand validates the config and precomputes the noise series.
func NewDiurnalDemand(cfg DiurnalConfig) (*DiurnalDemand, error) {
	switch {
	case cfg.Base <= 0 || cfg.Peak < cfg.Base:
		return nil, fmt.Errorf("fleet: demand needs 0 < Base <= Peak, got %v/%v", cfg.Base, cfg.Peak)
	case cfg.Horizon <= 0:
		return nil, fmt.Errorf("fleet: demand horizon must be positive")
	}
	d := &DiurnalDemand{cfg: cfg, step: 30 * sim.Minute}
	n := int(cfg.Horizon/d.step) + 2
	d.noise = make([]float64, n)
	rng := randx.Derive(cfg.Seed, "fleet/demand")
	// Through variables, so cv² and 1-ar² round like float64 arithmetic;
	// an untyped constant expression would fold them exactly (1-0.9*0.9
	// to 0.19, not 0.18999999999999995) and move the noise series.
	cv, ar := noiseCV, noiseAR
	sigma2 := math.Log(1 + cv*cv)
	sigma := math.Sqrt(sigma2)
	x := rng.NormFloat64()
	for i := range d.noise {
		if i > 0 {
			x = ar*x + math.Sqrt(1-ar*ar)*rng.NormFloat64()
		}
		// Lognormal with unit mean: E[exp(sigma x - sigma^2/2)] = 1.
		d.noise[i] = math.Exp(sigma*x - sigma2/2)
	}
	return d, nil
}

// At implements Demand.
func (d *DiurnalDemand) At(t sim.Time) float64 {
	c := d.cfg
	hour := math.Mod(float64(t)/sim.Hour, 24)
	if hour < 0 {
		hour += 24
	}
	// Trapezoid with smooth (raised-cosine) shoulders of width rampHours.
	level := 0.0
	switch {
	case hour >= peakStartHour && hour < peakEndHour:
		level = 1
	case hour >= peakStartHour-rampHours && hour < peakStartHour:
		level = 0.5 * (1 - math.Cos(math.Pi*(hour-(peakStartHour-rampHours))/rampHours))
	case hour >= peakEndHour && hour < peakEndHour+rampHours:
		level = 0.5 * (1 + math.Cos(math.Pi*(hour-peakEndHour)/rampHours))
	}
	load := c.Base + (c.Peak-c.Base)*level
	i := int(t / d.step)
	if i < 0 {
		i = 0
	}
	if i >= len(d.noise) {
		i = len(d.noise) - 1
	}
	return load * d.noise[i]
}
