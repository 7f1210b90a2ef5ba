package sched

import (
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestBandedRegimeRobustness runs the policies against the alternative
// price model of Agmon Ben-Yehuda et al. (a banded dynamic reserve price,
// never exceeding on-demand). The paper's mechanisms should degrade
// gracefully: with no possible revocations, proactive and reactive never
// migrate and even pure spot holds perfect availability — the paper's
// machinery only matters in spiky markets, and costs nothing in calm ones.
func TestBandedRegimeRobustness(t *testing.T) {
	rcfg := market.DefaultConfig(21)
	rcfg.Horizon = 15 * sim.Day
	rcfg.SpikesPerDay = 0 // the pure banded regime
	set, err := market.GenerateReserve(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	home := market.ID{Region: "us-east-1a", Type: "small"}

	var reports []struct {
		b Bidding
		r float64
	}
	for _, b := range []Bidding{Reactive, Proactive, PureSpot} {
		cfg := mustConfig(t)
		cfg.Home = home
		cfg.Markets = []market.ID{home}
		cfg.Bidding = b
		rep, err := Run(set, cloud.DefaultParams(21), cfg, 15*sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Migrations.Forced != 0 {
			t.Errorf("%v: forced migrations in a banded market: %+v", b, rep.Migrations)
		}
		if rep.DowntimeSeconds != 0 {
			t.Errorf("%v: downtime %v in a banded market", b, rep.DowntimeSeconds)
		}
		// Banded prices average ~47% of on-demand: all policies land there.
		if nc := rep.NormalizedCost(); nc < 0.35 || nc > 0.65 {
			t.Errorf("%v: normalized cost %.3f outside the band", b, nc)
		}
		reports = append(reports, struct {
			b Bidding
			r float64
		}{b, rep.NormalizedCost()})
	}
	// All three policies cost within a whisker of each other.
	for i := 1; i < len(reports); i++ {
		lo, hi := reports[0].r, reports[i].r
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi/lo > 1.1 {
			t.Errorf("policies diverged in a calm market: %v=%.3f vs %v=%.3f",
				reports[0].b, reports[0].r, reports[i].b, reports[i].r)
		}
	}
}

// TestBandedWithSpikesRestoresSeparation: re-adding demand spikes to the
// banded model brings back the paper's proactive-vs-pure-spot split.
func TestBandedWithSpikesRestoresSeparation(t *testing.T) {
	rcfg := market.DefaultConfig(23)
	rcfg.Horizon = 15 * sim.Day
	rcfg.SpikesPerDay = 3
	set, err := market.GenerateReserve(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	home := market.ID{Region: "us-east-1b", Type: "small"}

	run := func(b Bidding) float64 {
		cfg := mustConfig(t)
		cfg.Home = home
		cfg.Markets = []market.ID{home}
		cfg.Bidding = b
		rep, err := Run(set, cloud.DefaultParams(23), cfg, 15*sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Unavailability()
	}
	pro := run(Proactive)
	pure := run(PureSpot)
	if pure <= pro {
		t.Fatalf("spiky banded market should separate pure spot (%.5f) from proactive (%.5f)",
			pure, pro)
	}
	if pure < 0.001 {
		t.Fatalf("pure spot unavailability %.5f suspiciously low under spikes", pure)
	}
}
