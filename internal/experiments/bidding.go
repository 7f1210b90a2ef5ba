package experiments

import (
	"context"
	"fmt"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/runpool"
	"spothost/internal/sched"
	"spothost/internal/vm"
)

// runPolicy executes one scheduler configuration across all option seeds
// and returns the averaged report. Seeds run concurrently on the option
// worker pool; universes come from the shared market cache. Canceling the
// option context aborts every in-flight seed.
func runPolicy(opts Options, cfg sched.Config) (metrics.Report, error) {
	rs, err := sched.RunSeedsTracedCtx(opts.Context, opts.Market, opts.Cloud, cfg,
		opts.Horizon, opts.Seeds, opts.Parallel, opts.Trace)
	if err != nil {
		return metrics.Report{}, err
	}
	return metrics.Average(rs), nil
}

// runPolicies executes several scheduler configurations across all
// option seeds as one runpool.Grid, so a single pool keeps every worker
// busy across configs instead of draining one config's seeds at a time.
// Reports are averaged per config in seed order, exactly as running the
// configs serially through runPolicy would.
func runPolicies(opts Options, cfgs []sched.Config) ([]metrics.Report, error) {
	grid, err := runpool.Grid(opts.Context, opts.Parallel, len(cfgs), opts.Seeds, func(ctx context.Context, c int, seed int64) (metrics.Report, error) {
		set, cp, err := cloud.Seeded(opts.Market, opts.Cloud, seed)
		if err != nil {
			return metrics.Report{}, err
		}
		rec := opts.Trace.Run(fmt.Sprintf("cfg%02d/seed%d", c, seed))
		rep, err := sched.RunTracedCtx(ctx, set, cp, cfgs[c], opts.Horizon, rec)
		if err == nil {
			opts.Trace.Done(rec)
		}
		return rep, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]metrics.Report, len(cfgs))
	for c, reps := range grid {
		out[c] = metrics.Average(reps)
	}
	return out, nil
}

// singleMarketConfig builds the Sec. 4.2 configuration: one VM sized to
// the market's server type, hosted in exactly that spot market.
func singleMarketConfig(opts Options, home market.ID, b sched.Bidding, mech vm.Mechanism) (sched.Config, error) {
	cfg, err := sched.DefaultConfig(home, opts.Market.Types)
	if err != nil {
		return sched.Config{}, err
	}
	cfg.Bidding = b
	cfg.Mechanism = mech
	cfg.VMParams = opts.VM
	return cfg, nil
}

// Figure6Row is one instance-size column group of Fig. 6.
type Figure6Row struct {
	Type     market.InstanceType
	Reactive metrics.Report
	Proact   metrics.Report
}

// Figure6Result reproduces Fig. 6(a-d): proactive vs reactive bidding in a
// single market (us-east), per instance size.
type Figure6Result struct {
	Region market.Region
	Rows   []Figure6Row
}

// Figure6 runs both policies over every instance size. All
// (size, policy, seed) cells fan out over one worker pool.
func Figure6(opts Options) (Figure6Result, error) {
	opts = opts.normalize()
	res := Figure6Result{Region: opts.Region}
	var cfgs []sched.Config
	for _, ts := range opts.Market.Types {
		home := market.ID{Region: opts.Region, Type: ts.Name}
		for _, b := range []sched.Bidding{sched.Reactive, sched.Proactive} {
			cfg, err := singleMarketConfig(opts, home, b, vm.CKPTLazy)
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
	for i, ts := range opts.Market.Types {
		res.Rows = append(res.Rows, Figure6Row{
			Type:     ts.Name,
			Reactive: reports[2*i],
			Proact:   reports[2*i+1],
		})
	}
	return res, nil
}

// Render prints the four Fig. 6 panels as one table.
func (r Figure6Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.Type),
			pct(row.Reactive.NormalizedCost(), 1), pct(row.Proact.NormalizedCost(), 1),
			pct(row.Reactive.Unavailability(), 4), pct(row.Proact.Unavailability(), 4),
			fmt.Sprintf("%.4f", row.Reactive.ForcedPerHour()), fmt.Sprintf("%.4f", row.Proact.ForcedPerHour()),
			fmt.Sprintf("%.4f", row.Reactive.PlannedReversePerHour()), fmt.Sprintf("%.4f", row.Proact.PlannedReversePerHour()),
		})
	}
	return renderTable(
		fmt.Sprintf("Figure 6: proactive vs reactive bidding (single market, %s, CKPT+lazy restore)", r.Region),
		[]string{"market",
			"cost react", "cost proact",
			"unavail react", "unavail proact",
			"forced/hr react", "forced/hr proact",
			"plan+rev/hr react", "plan+rev/hr proact"},
		rows)
}

// Figure7Cell is one mechanism's unavailability under one parameter set.
type Figure7Cell struct {
	Mechanism vm.Mechanism
	Typical   metrics.Report
	Pessim    metrics.Report
}

// Figure7Result reproduces Fig. 7: the four migration mechanism
// combinations under typical and pessimistic constants, proactive bidding,
// small market.
type Figure7Result struct {
	Region market.Region
	Cells  []Figure7Cell
}

// Figure7 runs the mechanism comparison. The VM-parameter variants live
// inside each scheduler config, so every (mechanism, params, seed) cell
// fans out over one worker pool.
func Figure7(opts Options) (Figure7Result, error) {
	opts = opts.normalize()
	home := market.ID{Region: opts.Region, Type: "small"}
	res := Figure7Result{Region: opts.Region}
	var cfgs []sched.Config
	for _, mech := range vm.Mechanisms() {
		for _, pess := range []bool{false, true} {
			o := opts
			if pess {
				o.VM = vm.PessimisticParams()
			}
			cfg, err := singleMarketConfig(o, home, sched.Proactive, mech)
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
	for i, mech := range vm.Mechanisms() {
		res.Cells = append(res.Cells, Figure7Cell{
			Mechanism: mech,
			Typical:   reports[2*i],
			Pessim:    reports[2*i+1],
		})
	}
	return res, nil
}

// Render prints Fig. 7.
func (r Figure7Result) Render() string {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Mechanism.String(),
			pct(c.Typical.Unavailability(), 4),
			pct(c.Pessim.Unavailability(), 4),
			fmt.Sprintf("%.0f", c.Typical.DowntimeSeconds),
			fmt.Sprintf("%d", c.Typical.DownEpisodes),
		})
	}
	return renderTable(
		fmt.Sprintf("Figure 7: migration mechanisms (proactive, small, %s)", r.Region),
		[]string{"mechanism", "unavail typical", "unavail pessimistic", "downtime s (typ)", "episodes (typ)"},
		rows)
}

// Figure11Row is one market size of Fig. 11.
type Figure11Row struct {
	Type     market.InstanceType
	Proact   metrics.Report
	PureSpot metrics.Report
}

// Figure11Result reproduces Fig. 11: proactive (migration-based) hosting
// versus using spot instances alone.
type Figure11Result struct {
	Region market.Region
	Rows   []Figure11Row
}

// Figure11 runs the comparison per instance size, fanning every
// (size, policy, seed) cell over one worker pool.
func Figure11(opts Options) (Figure11Result, error) {
	opts = opts.normalize()
	res := Figure11Result{Region: opts.Region}
	var cfgs []sched.Config
	for _, ts := range opts.Market.Types {
		home := market.ID{Region: opts.Region, Type: ts.Name}
		for _, b := range []sched.Bidding{sched.Proactive, sched.PureSpot} {
			cfg, err := singleMarketConfig(opts, home, b, vm.CKPTLazyLive)
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
	for i, ts := range opts.Market.Types {
		res.Rows = append(res.Rows, Figure11Row{
			Type:     ts.Name,
			Proact:   reports[2*i],
			PureSpot: reports[2*i+1],
		})
	}
	return res, nil
}

// Render prints Fig. 11.
func (r Figure11Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.Type),
			pct(row.Proact.NormalizedCost(), 1), pct(row.PureSpot.NormalizedCost(), 1),
			pct(row.Proact.Unavailability(), 4), pct(row.PureSpot.Unavailability(), 3),
		})
	}
	return renderTable(
		fmt.Sprintf("Figure 11: proactive vs pure spot (%s)", r.Region),
		[]string{"market", "cost proact", "cost pure-spot", "unavail proact", "unavail pure-spot"},
		rows)
}

// Table3Result reproduces Table 3, the qualitative cost/availability
// matrix, derived from measured Fig. 6/11 data.
type Table3Result struct {
	OnDemandCost    float64 // normalized (1.0)
	OnDemandAvail   float64
	SpotCost        float64
	SpotAvail       float64
	MigrationCost   float64
	MigrationAvail  float64
	AvailThreshold  float64 // availability counted "high" above this
	CostThreshold   float64 // normalized cost counted "low" below this
	MigrationIsBest bool
}

// Table3 derives the matrix from single-market runs on the small market.
func Table3(opts Options) (Table3Result, error) {
	opts = opts.normalize()
	home := market.ID{Region: opts.Region, Type: "small"}

	var cfgs []sched.Config
	for _, b := range []sched.Bidding{sched.OnDemandOnly, sched.PureSpot, sched.Proactive} {
		cfg, err := singleMarketConfig(opts, home, b, vm.CKPTLazyLive)
		if err != nil {
			return Table3Result{}, err
		}
		cfgs = append(cfgs, cfg)
	}
	reports, err := runPolicies(opts, cfgs)
	if err != nil {
		return Table3Result{}, err
	}
	od, pure, pro := reports[0], reports[1], reports[2]
	res := Table3Result{
		OnDemandCost:   od.NormalizedCost(),
		OnDemandAvail:  1 - od.Unavailability(),
		SpotCost:       pure.NormalizedCost(),
		SpotAvail:      1 - pure.Unavailability(),
		MigrationCost:  pro.NormalizedCost(),
		MigrationAvail: 1 - pro.Unavailability(),
		AvailThreshold: 0.999,
		CostThreshold:  0.5,
	}
	res.MigrationIsBest = res.MigrationCost < res.CostThreshold &&
		res.MigrationAvail > res.AvailThreshold
	return res, nil
}

// Render prints Table 3 with the qualitative labels backed by numbers.
func (r Table3Result) Render() string {
	label := func(cost, avail float64) (string, string) {
		c, a := "High", "Low"
		if cost < r.CostThreshold {
			c = "Low"
		}
		if avail > r.AvailThreshold {
			a = "High"
		}
		return c, a
	}
	mk := func(name string, cost, avail float64) []string {
		c, a := label(cost, avail)
		return []string{name,
			fmt.Sprintf("%s (%.0f%%)", c, 100*cost),
			fmt.Sprintf("%s (%.4f%%)", a, 100*avail)}
	}
	rows := [][]string{
		mk("Only on-demand", r.OnDemandCost, r.OnDemandAvail),
		mk("Only spot", r.SpotCost, r.SpotAvail),
		mk("Using migration mechanisms", r.MigrationCost, r.MigrationAvail),
	}
	return renderTable("Table 3: cost and availability by hosting strategy",
		[]string{"strategy", "cost", "availability"}, rows)
}
