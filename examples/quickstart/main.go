// Quickstart: host one always-on service VM on the spot market with the
// paper's best configuration (proactive bidding, live migration + bounded
// checkpointing with lazy restore) and compare against the on-demand
// baseline.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

func main() {
	// 1. A month of synthetic spot prices for the default four-region,
	//    four-size universe (swap in market.ReadCSV to replay real AWS
	//    price history).
	prices, err := market.Generate(market.DefaultConfig(42))
	if err != nil {
		log.Fatal(err)
	}

	// 2. The hosting configuration: one VM sized to a small server in
	//    us-east-1a, proactive bidding at 4x the on-demand price.
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := sched.DefaultConfig(home)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run the cloud scheduler for 30 days of virtual time.
	report, err := sched.Run(prices, cloud.DefaultParams(42), cfg, 30*sim.Day)
	if err != nil {
		log.Fatal(err)
	}

	// 4. The verdict.
	fmt.Println(report)
	fmt.Printf("\nhosting cost is %.0f%% of the on-demand baseline (the paper reports 17-33%%)\n",
		100*report.NormalizedCost())
	fmt.Printf("service availability: %.4f%% (four-nines target: 99.99%%)\n",
		100*(1-report.Unavailability()))
}
