// Command fleet runs the replicated-fleet experiment: an SLO-autoscaled
// replica fleet spread across spot markets, comparing the three
// allocation strategies (lowest-price, diversified, stability) on cost,
// capacity shortfall and revocation blast radius.
//
// Usage:
//
//	fleet [-quick] [-seeds 5] [-days 30] [-parallel 8] [-json] [-csv out.csv]
//	      [-catalog default -anchor small]
//	      [-trace run.json] [-obs -obs-out fleet]
//
// -trace and -obs compose: the former records wall-ordered spans and
// histograms, the latter simulated-time timelines and the decision
// ledger; either or both may be enabled on one run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spothost/internal/catalog"
	"spothost/internal/cli"
	"spothost/internal/experiments"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// strategyJSON is one strategy's machine-readable outcome.
type strategyJSON struct {
	Strategy                string  `json:"strategy"`
	NormalizedCost          float64 `json:"normalized_cost"`
	CapacityShortfall       float64 `json:"capacity_shortfall"`
	PeakTarget              int     `json:"peak_target"`
	SpotFraction            float64 `json:"spot_fraction"`
	OnDemandFallbacks       int     `json:"on_demand_fallbacks"`
	ReverseReplacements     int     `json:"reverse_replacements"`
	ReplicasLost            int     `json:"replicas_lost"`
	WorstSimultaneousLoss   int     `json:"worst_simultaneous_loss"`
	MeanMaxSimultaneousLoss float64 `json:"mean_max_simultaneous_loss"`
	LossVariance            float64 `json:"loss_variance"`
	LossEvents              int     `json:"loss_events"`
}

// outputJSON is the -json document.
type outputJSON struct {
	Days       float64        `json:"days"`
	Seeds      []int64        `json:"seeds"`
	Markets    []string       `json:"markets"`
	WindowHrs  float64        `json:"loss_window_hours"`
	Strategies []strategyJSON `json:"strategies"`
}

var (
	run      = cli.Register(cli.Flags{Quick: true, Stride: 11, Parallel: true, Trace: true, ObsOut: "fleet-obs"})
	asJSON   = flag.Bool("json", false, "emit a machine-readable JSON document instead of the table")
	csvPath  = flag.String("csv", "", "also write the per-strategy CSV to this path")
	catalogF = flag.String("catalog", "", `instance catalog: "" (single-type legacy fleet), legacy, or default (ten heterogeneous types)`)
	anchorF  = flag.String("anchor", "small", "capacity anchor instance type; replicas must be at least this powerful (with -catalog)")
)

func main() {
	run.Parse()
	opts := run.Options()
	switch *catalogF {
	case "":
	case "legacy":
		opts.Catalog = catalog.Legacy()
	case "default":
		opts.Catalog = catalog.Default()
	default:
		cli.Check(cli.Usagef("unknown -catalog %q (want legacy or default)", *catalogF))
	}
	if opts.Catalog != nil {
		opts.Anchor = market.InstanceType(*anchorF)
		if _, ok := opts.Catalog.Lookup(opts.Anchor); !ok {
			cli.Check(cli.Usagef("anchor type %q is not in catalog %q", *anchorF, *catalogF))
		}
	}

	res, err := experiments.Fleet(opts)
	cli.Check(err)
	if *csvPath != "" {
		cli.Check(os.WriteFile(*csvPath, []byte(res.CSV()), 0o644))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	cli.Check(run.Export())

	if !*asJSON {
		fmt.Println(res.Render())
		return
	}
	out := outputJSON{
		Days:      float64(opts.Horizon) / sim.Day,
		Seeds:     opts.Seeds,
		WindowHrs: float64(res.Window) / sim.Hour,
	}
	for _, id := range res.Markets {
		out.Markets = append(out.Markets, id.String())
	}
	for _, row := range res.Rows {
		m := row.Mean
		spot := 0.0
		if tot := m.SpotSeconds + m.OnDemandSeconds; tot > 0 {
			spot = m.SpotSeconds / tot
		}
		out.Strategies = append(out.Strategies, strategyJSON{
			Strategy:                row.Strategy,
			NormalizedCost:          m.NormalizedCost(),
			CapacityShortfall:       m.CapacityShortfall(),
			PeakTarget:              m.PeakTarget,
			SpotFraction:            spot,
			OnDemandFallbacks:       m.OnDemandFallbacks,
			ReverseReplacements:     m.ReverseReplacements,
			ReplicasLost:            m.ReplicasLost,
			WorstSimultaneousLoss:   row.WorstSimultaneousLoss,
			MeanMaxSimultaneousLoss: row.MeanMaxSimultaneousLoss,
			LossVariance:            row.LossVariance,
			LossEvents:              row.LossEvents,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	cli.Check(enc.Encode(out))
}
