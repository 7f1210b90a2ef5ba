package experiments

import (
	"context"
	"fmt"
	"sync"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/runpool"
	"spothost/internal/sim"
	"spothost/internal/tpcw"
	"spothost/internal/trace"
)

// Fleet experiment constants: a diurnal load peaking at 1200 emulated
// browsers (a replica saturates around 150 at the 250 ms target, so the
// fleet breathes between roughly 3 and 9 replicas), bids at 1.5x
// on-demand so the generator's spikes revoke often enough to compare
// blast radii, and 6-hour windows for the loss-variance statistic.
const (
	fleetBaseLoad    = 300
	fleetPeakLoad    = 1200
	fleetBidMultiple = 1.5
	fleetMaxReplicas = 16
	fleetTargetMs    = 250
	fleetLossWindow  = 6 * sim.Hour
	fleetPlanQuantum = 128
	fleetDemandSeed  = 0 // fixed: every seed faces the same load curve
)

// fleetPlanner is the shared, memoized TPC-W capacity planner. The
// planner's inputs are experiment constants, so one instance serves every
// Fleet call (and every parallel cell); its mutex-guarded memo keeps
// lookups deterministic regardless of call order.
var fleetPlanner = sync.OnceValues(func() (*fleet.TPCWPlanner, error) {
	cfg := tpcw.DefaultConfig(1, false, true, 0)
	cfg.Duration = 600
	cfg.Warmup = 120
	return fleet.NewTPCWPlanner(cfg, fleetTargetMs, fleetMaxReplicas, fleetPlanQuantum)
})

// fleetMarkets restricts the fleet to the "small" market of every
// region: identical replica capacity everywhere, correlated only through
// the generator's shared regional/global shocks.
func fleetMarkets(opts Options) []market.ID {
	var ids []market.ID
	for _, r := range opts.Market.Regions {
		ids = append(ids, market.ID{Region: r.Name, Type: "small"})
	}
	return ids
}

// fleetBase is the configuration every fleet cell shares: the
// experiment's diurnal demand, capacity planner, bid multiple and replica
// cap. Cells set the strategy and the candidate markets.
func fleetBase(opts Options) (fleet.Config, error) {
	planner, err := fleetPlanner()
	if err != nil {
		return fleet.Config{}, err
	}
	dcfg := fleet.DefaultDiurnalConfig(opts.Horizon, fleetDemandSeed)
	dcfg.Base = fleetBaseLoad
	dcfg.Peak = fleetPeakLoad
	demand, err := fleet.NewDiurnalDemand(dcfg)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Demand:      demand,
		Planner:     planner,
		BidMultiple: fleetBidMultiple,
		MaxReplicas: fleetMaxReplicas,
	}, nil
}

// catalogMarkets is a typed fleet's candidate universe: every market of
// the first seed's universe of mc that the catalog deems compatible with
// the anchor type.
func catalogMarkets(opts Options, mc market.Config, cat *catalog.Catalog, anchor market.InstanceType) ([]market.ID, error) {
	set, _, err := cloud.Seeded(mc, opts.Cloud, opts.Seeds[0])
	if err != nil {
		return nil, err
	}
	return cat.CompatibleMarkets(set, anchor)
}

// fleetGrid runs one fleet configuration per row on every option seed's
// universe of mc as one runpool.Grid. row returns the row's config and
// its run label: each cell records into col and opts.Obs under
// "<label>/seed<N>" (either collector may be nil).
func fleetGrid(opts Options, mc market.Config, col *trace.Collector, rows int,
	row func(r int) (fleet.Config, string)) ([][]fleet.Report, error) {

	return runpool.Grid(opts.Context, opts.Parallel, rows, opts.Seeds, func(ctx context.Context, r int, seed int64) (fleet.Report, error) {
		set, cp, err := cloud.Seeded(mc, opts.Cloud, seed)
		if err != nil {
			return fleet.Report{}, err
		}
		cfg, name := row(r)
		label := fmt.Sprintf("%s/seed%d", name, seed)
		rec, ob := col.Run(label), opts.Obs.Run(label)
		rep, err := fleet.RunObsCtx(ctx, set, cp, cfg, opts.Horizon, rec, ob)
		if err == nil {
			col.Done(rec)
			opts.Obs.Done(ob)
		}
		return rep, err
	})
}

// FleetRow is one allocation strategy's cross-seed outcome.
type FleetRow struct {
	Strategy string
	// Mean is the cross-seed average report (series dropped).
	Mean fleet.Report
	// Seeds holds the per-seed reports, in seed order.
	Seeds []fleet.Report
	// WorstSimultaneousLoss is the largest single-instant replica loss
	// across all seeds; MeanMaxSimultaneousLoss averages the per-seed
	// maxima. LossVariance pools per-window loss counts across seeds.
	WorstSimultaneousLoss   int
	MeanMaxSimultaneousLoss float64
	LossVariance            float64
	LossEvents              int
}

// FleetResult compares the three allocation strategies: the repo's
// extension of the paper from one migrating VM to a replicated fleet.
type FleetResult struct {
	Markets []market.ID
	Window  sim.Duration
	Rows    []FleetRow
}

// Fleet runs the fleet-controller experiment: every (strategy, seed)
// cell is an independent simulation fanned over one worker pool, sharing
// the market cache and the memoized capacity planner.
func Fleet(opts Options) (FleetResult, error) {
	opts = opts.normalize()
	res := FleetResult{Markets: fleetMarkets(opts), Window: fleetLossWindow}
	anchor := opts.Anchor
	if anchor == "" {
		anchor = heterogeneityAnchor
	}
	base, err := fleetBase(opts)
	if err != nil {
		return res, err
	}
	mc := opts.Market
	if opts.Catalog != nil {
		// The candidate universe is every catalog-compatible market of
		// the widened set, not the per-region small markets.
		mc.Types = opts.Catalog.TypeSpecs()
		if res.Markets, err = catalogMarkets(opts, mc, opts.Catalog, anchor); err != nil {
			return res, err
		}
		base.Catalog, base.AnchorType = opts.Catalog, anchor
	} else {
		base.Markets = res.Markets
	}
	strategies := fleet.Strategies()
	reports, err := fleetGrid(opts, mc, opts.Trace, len(strategies), func(s int) (fleet.Config, string) {
		cfg := base
		cfg.Strategy = strategies[s]
		return cfg, strategies[s].Name()
	})
	if err != nil {
		return res, err
	}
	ns := len(opts.Seeds)
	for s, strat := range strategies {
		perSeed := reports[s]
		row := FleetRow{
			Strategy:     strat.Name(),
			Mean:         fleet.Average(perSeed),
			Seeds:        perSeed,
			LossVariance: fleet.PooledLossVariance(perSeed, fleetLossWindow),
		}
		for _, r := range perSeed {
			m := r.MaxSimultaneousLoss()
			if m > row.WorstSimultaneousLoss {
				row.WorstSimultaneousLoss = m
			}
			row.MeanMaxSimultaneousLoss += float64(m) / float64(ns)
			row.LossEvents += len(r.LossEvents)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the strategy comparison.
func (r FleetResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		m := row.Mean
		spotShare := 0.0
		if tot := m.SpotSeconds + m.OnDemandSeconds; tot > 0 {
			spotShare = m.SpotSeconds / tot
		}
		rows = append(rows, []string{
			row.Strategy,
			pct(m.NormalizedCost(), 1),
			pct(m.CapacityShortfall(), 3),
			fmt.Sprintf("%d", m.PeakTarget),
			pct(spotShare, 1),
			fmt.Sprintf("%d", m.OnDemandFallbacks),
			fmt.Sprintf("%d", m.ReverseReplacements),
			fmt.Sprintf("%d", m.ReplicasLost),
			fmt.Sprintf("%d", row.WorstSimultaneousLoss),
			fmt.Sprintf("%.1f", row.MeanMaxSimultaneousLoss),
			fmt.Sprintf("%.2f", row.LossVariance),
		})
	}
	return renderTable(
		fmt.Sprintf("Fleet: allocation strategies across %d spot markets (diurnal load, TPC-W capacity planning)", len(r.Markets)),
		[]string{"strategy", "cost", "shortfall", "peak", "spot time",
			"od fallback", "reverse", "lost", "worst simul", "mean max simul", "loss var"},
		rows)
}

// CSV emits the strategy comparison.
func (r FleetResult) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		m := row.Mean
		rows = append(rows, []string{
			row.Strategy,
			f(m.NormalizedCost()), f(m.CapacityShortfall()),
			fmt.Sprintf("%d", m.PeakTarget),
			f(m.SpotSeconds), f(m.OnDemandSeconds),
			fmt.Sprintf("%d", m.OnDemandFallbacks),
			fmt.Sprintf("%d", m.ReverseReplacements),
			fmt.Sprintf("%d", m.ReplicasLost),
			fmt.Sprintf("%d", row.WorstSimultaneousLoss),
			f(row.MeanMaxSimultaneousLoss),
			f(row.LossVariance),
		})
	}
	return csvTable([]string{"strategy", "cost", "shortfall", "peak_target",
		"spot_seconds", "od_seconds", "od_fallbacks", "reverse_replacements",
		"replicas_lost", "worst_simultaneous", "mean_max_simultaneous", "loss_variance"}, rows)
}
