package experiments

import (
	"fmt"

	"spothost/internal/catalog"
	"spothost/internal/fleet"
	"spothost/internal/market"
)

// heterogeneityAnchor is the capacity anchor both arms plan in: the
// paper's smallest general-purpose type, one capacity unit per replica.
const heterogeneityAnchor = "small"

// HeterogeneityRow is one allocation strategy's paired outcome: the same
// demand served from single-type small markets versus the full typed
// catalog over the same universe.
type HeterogeneityRow struct {
	Strategy string
	// Single and Typed are cross-seed average reports for the two arms.
	Single fleet.Report
	Typed  fleet.Report
	// SingleSeeds and TypedSeeds hold the per-seed reports, in seed order.
	SingleSeeds []fleet.Report
	TypedSeeds  []fleet.Report
	// Savings is 1 - typed/single mean dollar cost.
	Savings float64
	// TypesUsed counts distinct instance types the typed arm ever billed.
	TypesUsed int
}

// HeterogeneityResult compares homogeneous and catalog-driven fleets.
type HeterogeneityResult struct {
	// SingleMarkets and TypedMarkets are the candidate-universe sizes of
	// the two arms (4 small markets vs every catalog-compatible market).
	SingleMarkets int
	TypedMarkets  int
	Rows          []HeterogeneityRow
}

// Heterogeneity runs the instance-catalog experiment: for each allocation
// strategy, a fleet restricted to the per-region "small" markets (the
// pre-catalog configuration) races a fleet over the full default catalog
// anchored at small — same typed universe, same demand, same planner, so
// the only difference is the replacement pool. The typed arm may fill its
// unit target with any compatible size whose per-unit price currently
// wins (e.g. compute-optimized types undercut small per unit even on
// demand), which is where the savings come from.
func Heterogeneity(opts Options) (HeterogeneityResult, error) {
	opts = opts.normalize()
	cat := catalog.Default()
	res := HeterogeneityResult{}
	base, err := fleetBase(opts)
	if err != nil {
		return res, err
	}
	singleMarkets := fleetMarkets(opts)
	res.SingleMarkets = len(singleMarkets)

	// Rows are arm-major (single, then typed), then strategy. Both arms
	// share the typed universe via the market cache.
	mc := opts.Market
	mc.Types = cat.TypeSpecs()
	strategies := fleet.Strategies()
	half := len(strategies)
	reports, err := fleetGrid(opts, mc, nil, 2*half, func(r int) (fleet.Config, string) {
		cfg := base
		cfg.Strategy = strategies[r%half]
		arm := "single"
		if r >= half {
			cfg.Catalog = cat
			cfg.AnchorType = heterogeneityAnchor
			arm = "typed"
		} else {
			cfg.Markets = singleMarkets
		}
		return cfg, arm + "/" + strategies[r%half].Name()
	})
	if err != nil {
		return res, err
	}

	// The typed arm's candidate universe (the cache already holds the
	// first seed's set).
	if ids, err := catalogMarkets(opts, mc, cat, heterogeneityAnchor); err == nil {
		res.TypedMarkets = len(ids)
	}

	for s, strat := range strategies {
		singleSeeds, typedSeeds := reports[s], reports[half+s]
		row := HeterogeneityRow{
			Strategy:    strat.Name(),
			Single:      fleet.Average(singleSeeds),
			Typed:       fleet.Average(typedSeeds),
			SingleSeeds: singleSeeds,
			TypedSeeds:  typedSeeds,
		}
		if row.Single.Cost > 0 {
			row.Savings = 1 - row.Typed.Cost/row.Single.Cost
		}
		types := map[market.InstanceType]bool{}
		for _, rep := range typedSeeds {
			for id, u := range rep.MarketSeconds {
				if u.SpotSeconds+u.OnDemandSeconds > 0 {
					types[id.Type] = true
				}
			}
		}
		row.TypesUsed = len(types)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the single-type vs catalog comparison.
func (r HeterogeneityResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy,
			fmt.Sprintf("$%.2f", row.Single.Cost),
			fmt.Sprintf("$%.2f", row.Typed.Cost),
			pct(row.Savings, 1),
			pct(row.Single.CapacityShortfall(), 3),
			pct(row.Typed.CapacityShortfall(), 3),
			fmt.Sprintf("%d", row.TypesUsed),
			fmt.Sprintf("%d", row.Typed.OnDemandFallbacks),
			fmt.Sprintf("%d", row.Typed.ReplicasLost),
		})
	}
	return renderTable(
		fmt.Sprintf("Heterogeneity: single-type (%d markets) vs typed catalog (%d markets, anchor %s)",
			r.SingleMarkets, r.TypedMarkets, heterogeneityAnchor),
		[]string{"strategy", "single cost", "typed cost", "savings",
			"single shortfall", "typed shortfall", "types", "od fallback", "lost"},
		rows)
}

// CSV emits the comparison.
func (r HeterogeneityResult) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy,
			f(row.Single.Cost), f(row.Typed.Cost), f(row.Savings),
			f(row.Single.CapacityShortfall()), f(row.Typed.CapacityShortfall()),
			fmt.Sprintf("%d", row.TypesUsed),
			fmt.Sprintf("%d", row.Typed.OnDemandFallbacks),
			fmt.Sprintf("%d", row.Typed.ReplicasLost),
		})
	}
	return csvTable([]string{"strategy", "single_cost", "typed_cost", "savings",
		"single_shortfall", "typed_shortfall", "types_used", "od_fallbacks",
		"replicas_lost"}, rows)
}
