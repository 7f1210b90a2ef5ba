package fleet

import (
	"context"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// propertyMarkets restricts a fleet to the "small" market of every
// region: identical replica capacity everywhere, correlated only through
// the generator's shared regional/global shocks.
func propertyMarkets() []market.ID {
	var ids []market.ID
	for _, r := range market.DefaultRegions() {
		ids = append(ids, market.ID{Region: r.Name, Type: "small"})
	}
	return ids
}

// TestDiversificationReducesSimultaneousLoss is the correlation property
// test: under the generator's shared-shock spikes, capping per-market
// share (Diversified) must strictly reduce both the variance of
// replicas lost per window and the worst simultaneous loss, relative to
// LowestPrice concentrating the whole fleet in the cheapest market.
func TestDiversificationReducesSimultaneousLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fleet simulation")
	}
	const (
		horizon = 10 * sim.Day
		window  = 6 * sim.Hour
	)
	seeds := []int64{1, 2, 3, 4, 5}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = horizon

	run := func(s Strategy) []Report {
		cfg := Config{
			Markets:  propertyMarkets(),
			Strategy: s,
			Demand:   ConstantDemand(9),
			Planner:  LinearPlanner{PerReplica: 1},
			// A low bid keeps revocations frequent enough to measure.
			BidMultiple: 1.3,
		}
		reps, err := RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, horizon, seeds, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return reps
	}
	lp := run(LowestPrice{})
	div := run(Diversified{})

	maxLoss := func(reps []Report) int {
		m := 0
		for _, r := range reps {
			if l := r.MaxSimultaneousLoss(); l > m {
				m = l
			}
		}
		return m
	}
	events := func(reps []Report) int {
		n := 0
		for _, r := range reps {
			n += len(r.LossEvents)
		}
		return n
	}
	if events(lp) == 0 {
		t.Fatal("LowestPrice saw no revocations; the property is vacuous — lower the bid multiple")
	}
	lpVar := PooledLossVariance(lp, window)
	divVar := PooledLossVariance(div, window)
	t.Logf("lowest-price: %d events, max simultaneous %d, loss variance %.3f",
		events(lp), maxLoss(lp), lpVar)
	t.Logf("diversified:  %d events, max simultaneous %d, loss variance %.3f",
		events(div), maxLoss(div), divVar)
	if divVar >= lpVar {
		t.Fatalf("diversification did not reduce loss variance: %.3f >= %.3f", divVar, lpVar)
	}
	if maxLoss(div) > maxLoss(lp) {
		t.Fatalf("diversified worst simultaneous loss %d exceeds lowest-price %d",
			maxLoss(div), maxLoss(lp))
	}
	// Diversification must still beat the all-on-demand baseline.
	for _, r := range div {
		if r.NormalizedCost() >= 1 {
			t.Fatalf("seed %d: diversified cost %.2f not under baseline %.2f",
				r.Seed, r.Cost, r.BaselineCost)
		}
	}
}
