package experiments

import (
	"fmt"

	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/vm"
)

// AblationPoint is one knob setting's outcome.
type AblationPoint struct {
	Value  float64
	Report metrics.Report
}

// AblationResult sweeps the scheduler's design knobs one at a time,
// quantifying the choices the paper fixes by fiat: the proactive bid
// multiple (the paper uses the 4x cap), the Yank checkpoint bound, the
// market-switch hysteresis, and the stability-aware bidding penalty (the
// paper's future work).
type AblationResult struct {
	BidMultiple []AblationPoint
	CkptBound   []AblationPoint
	Hysteresis  []AblationPoint
	Stability   []AblationPoint
}

// Ablations runs all four sweeps. The sweeps are independent simulations,
// so all sixteen (knob, value) configs — and their seeds — fan out over
// one worker pool.
func Ablations(opts Options) (AblationResult, error) {
	opts = opts.normalize()
	var res AblationResult
	home := market.ID{Region: figureRegion, Type: "small"}

	// 1) Proactive bid multiple: higher bids should suppress forced
	// migrations at essentially unchanged cost (spot hours bill at the
	// market price, not the bid).
	// 2) Checkpoint bound tau: a looser bound means a longer final save
	// and therefore longer forced-migration downtime.
	// 3) Hysteresis on a multi-market fleet: low values chase noise
	// (migration churn), high values leave savings on the table.
	// 4) Stability penalty lambda on a volatile multi-region fleet (the
	// paper's future work, Sec. 8): penalizing jumpy markets should trade
	// a little cost for fewer migrations.
	bidMultiples := []float64{1.5, 2, 3, 4}
	taus := []float64{1, 3, 10, 30}
	hysts := []float64{0, 0.05, 0.15, 0.4}
	lambdas := []float64{0, 0.5, 1, 2}
	both := append(marketsIn("us-east-1b"), marketsIn(figureRegion)...)

	var cfgs []sched.Config
	for _, k := range bidMultiples {
		cfg, err := singleMarketConfig(home, sched.Proactive, vm.CKPTLazyLive)
		if err != nil {
			return res, err
		}
		cfg.BidMultiple = k
		cfgs = append(cfgs, cfg)
	}
	for _, tau := range taus {
		cfg, err := singleMarketConfig(home, sched.Proactive, vm.CKPTLazyLive)
		if err != nil {
			return res, err
		}
		cfg.VMParams.CheckpointBound = tau
		cfgs = append(cfgs, cfg)
	}
	for _, h := range hysts {
		cfg, err := fleetConfig(home, marketsIn(figureRegion), FleetVMs)
		if err != nil {
			return res, err
		}
		cfg.Hysteresis = h
		cfgs = append(cfgs, cfg)
	}
	for _, lambda := range lambdas {
		cfg, err := fleetConfig(home, both, FleetVMs)
		if err != nil {
			return res, err
		}
		cfg.StabilityPenalty = lambda
		cfgs = append(cfgs, cfg)
	}

	reports, err := runPolicies(opts, cfgs)
	if err != nil {
		return res, err
	}
	next := 0
	take := func(values []float64) []AblationPoint {
		var pts []AblationPoint
		for _, v := range values {
			pts = append(pts, AblationPoint{Value: v, Report: reports[next]})
			next++
		}
		return pts
	}
	res.BidMultiple = take(bidMultiples)
	res.CkptBound = take(taus)
	res.Hysteresis = take(hysts)
	res.Stability = take(lambdas)
	return res, nil
}

// Render prints the four sweeps.
func (r AblationResult) Render() string {
	section := func(title, knob string, pts []AblationPoint) string {
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprintf("%g", p.Value),
				pct(p.Report.NormalizedCost(), 1),
				pct(p.Report.Unavailability(), 4),
				fmt.Sprintf("%.4f", p.Report.ForcedPerHour()),
				fmt.Sprintf("%d", p.Report.Migrations.Total()),
			})
		}
		return renderTable(title,
			[]string{knob, "cost", "unavail", "forced/hr", "migrations"}, rows)
	}
	return section("Ablation: proactive bid multiple k (paper fixes k=4)", "k", r.BidMultiple) +
		"\n" + section("Ablation: Yank checkpoint bound tau (s)", "tau", r.CkptBound) +
		"\n" + section("Ablation: market-switch hysteresis (multi-market fleet)", "hysteresis", r.Hysteresis) +
		"\n" + section("Ablation: stability penalty lambda (multi-region fleet, future work)", "lambda", r.Stability)
}
