package experiments

import (
	"context"
	"fmt"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/runpool"
	"spothost/internal/sched"
)

// RobustnessRow is one policy's outcome under one price regime.
type RobustnessRow struct {
	Policy   sched.Bidding
	Banded   metrics.Report // 2010-2012-style banded reserve prices
	Spiky    metrics.Report // banded + demand spikes
	Baseline metrics.Report // the default calibrated generator
}

// RobustnessResult stress-tests the paper's conclusions under the
// alternative price regime of Agmon Ben-Yehuda et al. (2013): a banded
// dynamic reserve price that never exceeds on-demand. The claims should
// degrade gracefully — in a calm market all policies converge and nothing
// migrates; in spiky regimes the paper's separations reappear.
type RobustnessResult struct {
	Rows []RobustnessRow
}

// Robustness runs the three policies under three price regimes. Every
// (policy, regime, seed) cell is an independent simulation, so they all
// fan out over one runpool.Grid; the shared market cache generates each
// regime's universe once per seed instead of once per policy.
func Robustness(opts Options) (RobustnessResult, error) {
	opts = opts.normalize()
	home := market.ID{Region: figureRegion, Type: "small"}
	policies := []sched.Bidding{sched.Reactive, sched.Proactive, sched.PureSpot}
	const regimes = 3 // banded, spiky, baseline

	// universe returns a regime's universe for one seed: the banded
	// regimes come from the reserve-price generator, the baseline from the
	// calibrated one.
	universe := func(regime int, seed int64) (*market.Set, cloud.Params, error) {
		if regime == 2 {
			return cloud.Seeded(opts.marketConfig(), cloud.DefaultParams(0), seed)
		}
		rcfg := market.DefaultConfig(seed)
		rcfg.Horizon = opts.Horizon
		rcfg.SpikesPerDay = 0 // the pure banded regime
		if regime == 1 {
			rcfg.SpikesPerDay = 3
		}
		set, err := market.SharedCache().GenerateReserve(rcfg)
		return set, cloud.DefaultParams(seed), err
	}

	// Rows are policy-major, then regime.
	reports, err := runpool.Grid(opts.Context, opts.Parallel, len(policies)*regimes, opts.Seeds, func(ctx context.Context, r int, seed int64) (metrics.Report, error) {
		set, cp, err := universe(r%regimes, seed)
		if err != nil {
			return metrics.Report{}, err
		}
		cfg, err := sched.DefaultConfig(home)
		if err != nil {
			return metrics.Report{}, err
		}
		cfg.Bidding = policies[r/regimes]
		return sched.RunCtx(ctx, set, cp, cfg, opts.Horizon)
	})
	var res RobustnessResult
	if err != nil {
		return res, err
	}
	for p, b := range policies {
		res.Rows = append(res.Rows, RobustnessRow{
			Policy:   b,
			Banded:   metrics.Average(reports[p*regimes]),
			Spiky:    metrics.Average(reports[p*regimes+1]),
			Baseline: metrics.Average(reports[p*regimes+2]),
		})
	}
	return res, nil
}

// Render prints the regime comparison.
func (r RobustnessResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy.String(),
			pct(row.Banded.NormalizedCost(), 1), pct(row.Banded.Unavailability(), 4),
			pct(row.Spiky.NormalizedCost(), 1), pct(row.Spiky.Unavailability(), 4),
			pct(row.Baseline.NormalizedCost(), 1), pct(row.Baseline.Unavailability(), 4),
			fmt.Sprintf("%d", row.Banded.Migrations.Total()),
		})
	}
	return renderTable(
		"Robustness: policies under alternative price regimes (banded reserve / banded+spikes / calibrated)",
		[]string{"policy",
			"cost banded", "unavail banded",
			"cost spiky", "unavail spiky",
			"cost default", "unavail default",
			"migrations banded"},
		rows)
}

// CSV emits the regime comparison.
func (r RobustnessResult) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy.String(),
			f(row.Banded.NormalizedCost()), f(row.Banded.Unavailability()),
			f(row.Spiky.NormalizedCost()), f(row.Spiky.Unavailability()),
			f(row.Baseline.NormalizedCost()), f(row.Baseline.Unavailability()),
		})
	}
	return csvTable([]string{"policy",
		"cost_banded", "unavail_banded",
		"cost_spiky", "unavail_spiky",
		"cost_default", "unavail_default"}, rows)
}
