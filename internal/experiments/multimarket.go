package experiments

import (
	"fmt"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/vm"
)

// fleetConfig builds a fleet of unit nested VMs that can pack onto any of
// the candidate markets (the Sec. 4.4 / 4.5 service model).
func fleetConfig(opts Options, home market.ID, markets []market.ID, count int) (sched.Config, error) {
	cfg, err := sched.DefaultConfig(home, opts.Market.Types)
	if err != nil {
		return sched.Config{}, err
	}
	cfg.Service = sched.ServiceSpec{
		VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
		Count: count,
	}
	cfg.Markets = markets
	cfg.Bidding = sched.Proactive
	cfg.Mechanism = vm.CKPTLazyLive
	cfg.VMParams = opts.VM
	// Fleets see several near-equal markets; a higher hysteresis keeps
	// them from churning between markets on base-price noise.
	cfg.Hysteresis = 0.15
	return cfg, nil
}

// marketsIn lists all candidate markets of one region.
func marketsIn(opts Options, r market.Region) []market.ID {
	var out []market.ID
	for _, ts := range opts.Market.Types {
		out = append(out, market.ID{Region: r, Type: ts.Name})
	}
	return out
}

// FleetVMs is the number of unit VMs in the multi-market service (they
// pack 4-up onto a large server or 8-up onto an xlarge).
const FleetVMs = 4

// Figure8Row is one region of Fig. 8.
type Figure8Row struct {
	Region market.Region
	// AvgSingle is the mean report over the four single-market fleets.
	AvgSingle metrics.Report
	// Multi is the multi-market fleet.
	Multi metrics.Report
	// Correlation is the mean pairwise price correlation within the
	// region (Fig. 8(b)).
	Correlation float64
	// Reduction is 1 - multi/single normalized cost (the paper's "8% to
	// 52%" improvement).
	Reduction float64
}

// Figure8Result reproduces Fig. 8: multi-market vs single-market bidding
// within each region.
type Figure8Result struct {
	Rows []Figure8Row
}

// Figure8 runs single- and multi-market fleets in every region. Every
// (region, fleet, seed) cell fans out over one worker pool; the per-region
// layout in the flattened config slice is the four single-market fleets
// followed by the multi-market fleet.
func Figure8(opts Options) (Figure8Result, error) {
	opts = opts.normalize()
	var res Figure8Result
	var cfgs []sched.Config
	perRegion := 0
	for _, rs := range opts.Market.Regions {
		home := market.ID{Region: rs.Name, Type: "small"}
		all := marketsIn(opts, rs.Name)
		perRegion = len(all) + 1
		for _, m := range all {
			cfg, err := fleetConfig(opts, home, []market.ID{m}, FleetVMs)
			if err != nil {
				return res, err
			}
			cfgs = append(cfgs, cfg)
		}
		cfg, err := fleetConfig(opts, home, all, FleetVMs)
		if err != nil {
			return res, err
		}
		cfgs = append(cfgs, cfg)
	}
	reports, err := runPolicies(opts, cfgs)
	if err != nil {
		return res, err
	}
	for i, rs := range opts.Market.Regions {
		group := reports[i*perRegion : (i+1)*perRegion]
		corr, err := regionCorrelation(opts, rs.Name)
		if err != nil {
			return res, err
		}
		row := Figure8Row{
			Region:      rs.Name,
			AvgSingle:   metrics.Average(group[:perRegion-1]),
			Multi:       group[perRegion-1],
			Correlation: corr,
		}
		if s := row.AvgSingle.NormalizedCost(); s > 0 {
			row.Reduction = 1 - row.Multi.NormalizedCost()/s
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// regionCorrelation averages the intra-region pairwise correlation over
// the option seeds. Universes come from the shared cache, so the fleet
// runs that already generated them make these lookups free.
func regionCorrelation(opts Options, r market.Region) (float64, error) {
	sum := 0.0
	for _, seed := range opts.Seeds {
		set, _, err := cloud.Seeded(opts.Market, opts.Cloud, seed)
		if err != nil {
			return 0, err
		}
		var ids []market.ID
		for _, ty := range set.TypesIn(r) {
			ids = append(ids, market.ID{Region: r, Type: ty})
		}
		sum += market.PairwiseAvgCorrelation(set, ids)
	}
	return sum / float64(len(opts.Seeds)), nil
}

// Render prints Fig. 8(a-c).
func (r Figure8Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.Region),
			pct(row.AvgSingle.NormalizedCost(), 1),
			pct(row.Multi.NormalizedCost(), 1),
			pct(row.Reduction, 1),
			fmt.Sprintf("%.3f", row.Correlation),
			pct(row.AvgSingle.Unavailability(), 4),
			pct(row.Multi.Unavailability(), 4),
		})
	}
	return renderTable(
		fmt.Sprintf("Figure 8: multi-market vs single-market bidding (%d-VM fleet)", FleetVMs),
		[]string{"region", "cost single(avg)", "cost multi", "reduction",
			"intra corr", "unavail single", "unavail multi"},
		rows)
}

// Figure9Row is one region pair of Fig. 9.
type Figure9Row struct {
	A, B market.Region
	// AvgSingle is the mean of the two single-region multi-market fleets,
	// each normalized against the pair's cheapest on-demand baseline.
	AvgSingle metrics.Report
	// Multi is the multi-region fleet over both regions' markets.
	Multi metrics.Report
	// Correlation is the mean same-type cross-region price correlation.
	Correlation float64
	Reduction   float64
}

// Figure9Result reproduces Fig. 9: multi-region vs single-region bidding
// over region pairs.
type Figure9Result struct {
	Rows []Figure9Row
}

// Figure9 runs all region pairs. Every (pair, fleet, seed) cell fans out
// over one worker pool; each pair contributes three configs to the
// flattened slice — the two single-region fleets, then the multi-region
// fleet.
func Figure9(opts Options) (Figure9Result, error) {
	opts = opts.normalize()
	regions := opts.Market.Regions
	var res Figure9Result
	type pair struct{ a, b market.RegionSpec }
	var pairs []pair
	var cfgs []sched.Config
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			pairs = append(pairs, pair{a, b})
			// Baseline home: the pair's cheaper on-demand region.
			homeRegion := a
			if b.ODFactor < a.ODFactor {
				homeRegion = b
			}
			home := market.ID{Region: homeRegion.Name, Type: "small"}

			for _, reg := range []market.Region{a.Name, b.Name} {
				cfg, err := fleetConfig(opts, home, marketsIn(opts, reg), FleetVMs)
				if err != nil {
					return res, err
				}
				cfgs = append(cfgs, cfg)
			}
			both := append(marketsIn(opts, a.Name), marketsIn(opts, b.Name)...)
			cfg, err := fleetConfig(opts, home, both, FleetVMs)
			if err != nil {
				return res, err
			}
			cfgs = append(cfgs, cfg)
		}
	}
	reports, err := runPolicies(opts, cfgs)
	if err != nil {
		return res, err
	}
	for i, pr := range pairs {
		a, b := pr.a, pr.b
		group := reports[3*i : 3*i+3]

		corr := 0.0
		for _, seed := range opts.Seeds {
			set, _, err := cloud.Seeded(opts.Market, opts.Cloud, seed)
			if err != nil {
				return res, err
			}
			corr += market.CrossRegionCorrelation(set, a.Name, b.Name)
		}
		corr /= float64(len(opts.Seeds))

		row := Figure9Row{
			A: a.Name, B: b.Name,
			AvgSingle:   metrics.Average(group[:2]),
			Multi:       group[2],
			Correlation: corr,
		}
		if s := row.AvgSingle.NormalizedCost(); s > 0 {
			row.Reduction = 1 - row.Multi.NormalizedCost()/s
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints Fig. 9(a-c).
func (r Figure9Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%s + %s", row.A, row.B),
			pct(row.AvgSingle.NormalizedCost(), 1),
			pct(row.Multi.NormalizedCost(), 1),
			pct(row.Reduction, 1),
			fmt.Sprintf("%.3f", row.Correlation),
			pct(row.AvgSingle.Unavailability(), 4),
			pct(row.Multi.Unavailability(), 4),
			fmt.Sprintf("%d", row.Multi.Migrations.CrossRegion),
		})
	}
	return renderTable(
		fmt.Sprintf("Figure 9: multi-region vs single-region bidding (%d-VM fleet)", FleetVMs),
		[]string{"pair", "cost single(avg)", "cost multi", "reduction",
			"cross corr", "unavail single", "unavail multi", "xregion migrations"},
		rows)
}
