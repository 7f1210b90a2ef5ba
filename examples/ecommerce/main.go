// E-commerce scenario: an always-on shop front (the paper's motivating
// workload) must hold four nines of availability — at most ~4.3 minutes of
// downtime per month. This example compares every migration-mechanism
// combination and both bidding algorithms over the same month of spot
// prices, and reports which configurations meet the availability bar and
// at what cost.
//
// Run with: go run ./examples/ecommerce
package main

import (
	"context"
	"fmt"
	"log"

	"spothost/internal/econ"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// fourNines is the paper's availability requirement: unavailability of at
// most one basis point (0.01%).
const fourNines = 0.0001

func main() {
	mcfg := market.DefaultConfig(0)
	home := market.ID{Region: "us-east-1a", Type: "medium"} // the shop's server size
	seeds := []int64{101, 202, 303}
	ctx := context.Background()

	fmt.Println("E-commerce hosting study: four-nines availability on spot servers")
	fmt.Printf("market %s, %d seeds x 30 days\n\n", home, len(seeds))
	fmt.Printf("%-10s %-15s %9s %13s %9s %s\n",
		"bidding", "mechanism", "cost", "unavail", "down/mo", "meets 99.99%?")

	for _, bidding := range []sched.Bidding{sched.Reactive, sched.Proactive} {
		for _, mech := range vm.Mechanisms() {
			cfg, err := sched.DefaultConfig(home)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Bidding = bidding
			cfg.Mechanism = mech
			// A busy shop dirties memory faster than the default.
			cfg.Service.VM.DirtyRateMBps = 12

			reports, err := sched.RunSeedsTracedCtx(ctx, mcfg, []sched.Config{cfg}, nil, 30*sim.Day, seeds, 0, nil)
			if err != nil {
				log.Fatal(err)
			}
			avg := metrics.Average(reports[0])
			downPerMonth := avg.Unavailability() * 30 * 24 * 60 // minutes
			verdict := "NO"
			if avg.Unavailability() <= fourNines {
				verdict = "yes"
			}
			fmt.Printf("%-10s %-15s %8.1f%% %12.4f%% %7.1fm %s\n",
				bidding, mech, 100*avg.NormalizedCost(),
				100*avg.Unavailability(), downPerMonth, verdict)
		}
	}

	fmt.Println("\nReading the table: reactive bidding suffers more forced migrations, so")
	fmt.Println("only the strongest mechanisms rescue it; proactive bidding with")
	fmt.Println("checkpointing + lazy restore (and live migration for voluntary moves)")
	fmt.Println("meets four nines at roughly one-fifth of the on-demand cost — the")
	fmt.Println("paper's headline result.")

	// Price the best configuration in business terms: does the saving
	// survive the revenue lost during migrations?
	bestCfg, err := sched.DefaultConfig(home)
	if err != nil {
		log.Fatal(err)
	}
	reports, err := sched.RunSeedsTracedCtx(ctx, mcfg, []sched.Config{bestCfg}, nil, 30*sim.Day, seeds, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	best := metrics.Average(reports[0])
	shopTraffic := econ.RevenueModel{
		RequestsPerSecond:  40,    // a mid-size shop
		RevenuePerRequest:  0.001, // $144/hr of revenue
		DegradedLossFactor: 0.3,
	}
	a, err := econ.Analyze(shopTraffic, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbusiness view (proactive, CKPT LR + Live, $%.0f/hr revenue): %s\n",
		shopTraffic.RevenuePerSecond()*3600, a)
	fmt.Printf("the shop could tolerate %.2fx more downtime before spot hosting stopped paying\n",
		a.HeadroomFactor)
}
