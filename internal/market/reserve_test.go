package market

import (
	"slices"
	"testing"

	"spothost/internal/sim"
)

// reserveConfig is the banded regime at seed over horizon, with spikes
// demand spikes a day layered on top.
func reserveConfig(seed int64, spikes float64, horizon sim.Duration) Config {
	cfg := DefaultConfig(seed)
	cfg.SpikesPerDay = spikes
	cfg.Horizon = horizon
	return cfg
}

func TestReserveConfigValidation(t *testing.T) {
	good := reserveConfig(1, 0, 30*sim.Day)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Types = nil },
		func(c *Config) { c.Horizon = 10 },
		func(c *Config) { c.SpikesPerDay = -1 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := GenerateReserve(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestReserveBandedRegime: without spikes, every price stays strictly
// inside the [floor, ceiling] x on-demand band — below the on-demand price,
// so bid = on-demand can never be revoked.
func TestReserveBandedRegime(t *testing.T) {
	set, err := GenerateReserve(reserveConfig(5, 0, 10*sim.Day))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.IDs()) != 16 {
		t.Fatalf("markets = %d", len(set.IDs()))
	}
	for _, id := range set.IDs() {
		tr := set.Trace(id)
		od := set.OnDemand(id)
		lo, hi := FloorRatio*od, CeilRatio*od
		if tr.Min() < lo-1e-12 || tr.Max() > hi+1e-12 {
			t.Errorf("%s: prices [%v, %v] escape band [%v, %v]",
				id, tr.Min(), tr.Max(), lo, hi)
		}
		if tr.FractionAbove(od, 0, tr.End()) != 0 {
			t.Errorf("%s: banded price exceeded on-demand", id)
		}
		if tr.Len() < 50 {
			t.Errorf("%s: suspiciously static trace (%d points)", id, tr.Len())
		}
	}
}

// TestReserveWithSpikesEscapesBand: the spike overlay restores excursions
// above on-demand.
func TestReserveWithSpikesEscapesBand(t *testing.T) {
	set, err := GenerateReserve(reserveConfig(7, 3, 15*sim.Day))
	if err != nil {
		t.Fatal(err)
	}
	escaped := false
	for _, id := range set.IDs() {
		if set.Trace(id).Max() > set.OnDemand(id) {
			escaped = true
			break
		}
	}
	if !escaped {
		t.Fatal("no market ever exceeded on-demand despite spikes")
	}
}

func TestReserveDeterminism(t *testing.T) {
	cfg := reserveConfig(3, 0, 3*sim.Day)
	a, err := GenerateReserve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateReserve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := a.IDs()[0]
	ta, tb := a.Trace(id), b.Trace(id)
	if !slices.Equal(ta.Times(), tb.Times()) || !slices.Equal(ta.Prices(), tb.Prices()) {
		t.Fatal("traces differ")
	}
}
