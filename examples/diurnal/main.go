// Diurnal elasticity: the paper's introduction motivates clouds with
// "just-in-time allocation of capacity to handle peak workloads". This
// example hosts a steady base fleet around the clock plus a surge shard
// that only exists during the daily eight-hour peak — all of it on the
// spot machinery — and compares the bill against an on-demand fleet
// provisioned for the peak 24/7 (the traditional way).
//
// Run with: go run ./examples/diurnal
package main

import (
	"context"
	"fmt"
	"log"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

const days = 14

func main() {
	mcfg := market.DefaultConfig(777)
	mcfg.Horizon = days * sim.Day
	prices, err := market.Generate(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	p := sched.NewPortfolio(prices, cloud.DefaultParams(777))

	home := market.ID{Region: "us-east-1a", Type: "small"}
	fleet := func(count int) sched.Config {
		cfg, err := sched.DefaultConfig(home)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Service = sched.UnitFleet(count)
		return cfg
	}

	// Base: 2 unit VMs around the clock.
	if err := p.AddAt(0, "base", fleet(2)); err != nil {
		log.Fatal(err)
	}
	// Surge: 4 more unit VMs during the 10:00-18:00 peak, every day.
	for d := 0; d < days; d++ {
		name := fmt.Sprintf("surge-day%02d", d+1)
		start := sim.Time(d)*sim.Day + 10*sim.Hour
		stop := sim.Time(d)*sim.Day + 18*sim.Hour
		if err := p.AddAt(start, name, fleet(4)); err != nil {
			log.Fatal(err)
		}
		if err := p.StopAt(stop, name); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.RunCtx(context.Background(), days*sim.Day); err != nil {
		log.Fatal(err)
	}

	tot := p.Totals()
	base, _ := p.Report("base")

	// The traditional alternative: own (or rent on-demand) the PEAK fleet
	// of 6 unit VMs for the whole two weeks.
	odPrice := prices.OnDemand(home)
	peakProvisioned := 6 * odPrice * 24 * days

	fmt.Printf("steady base fleet:   cost $%.2f (%.0f%% of its on-demand baseline)\n",
		base.Cost, 100*base.NormalizedCost())
	surgeCost := tot.Cost - base.Cost
	fmt.Printf("%d daily surge shards: cost $%.2f total\n", days, surgeCost)
	fmt.Printf("spot-elastic total:  $%.2f\n", tot.Cost)
	fmt.Printf("peak-provisioned on-demand fleet (6 VMs 24/7): $%.2f\n", peakProvisioned)
	fmt.Printf("\ncombined savings: %.0f%% — elasticity stacks on top of the paper's\n",
		100*(1-tot.Cost/peakProvisioned))
	fmt.Printf("spot discount (mean unavailability %.4f%%, worst shard %.4f%%)\n",
		100*tot.MeanUnavailability, 100*tot.WorstUnavailability)
}
