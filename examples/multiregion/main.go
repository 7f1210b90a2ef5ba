// Multi-region scenario: a fleet of four unit nested VMs that the
// scheduler may pack onto any server size (small..xlarge) in one or two
// regions, chasing the cheapest per-unit spot price. Demonstrates the
// Sec. 4.4/4.5 results: more markets => lower cost, with the caveat that
// chasing volatile markets can cost availability.
//
// Run with: go run ./examples/multiregion
package main

import (
	"context"
	"fmt"
	"log"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

func run(name string, markets []market.ID, home market.ID, seeds []int64) metrics.Report {
	cfg, err := sched.DefaultConfig(home, market.DefaultTypes())
	if err != nil {
		log.Fatal(err)
	}
	cfg.Service = sched.ServiceSpec{
		VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
		Count: 4,
	}
	cfg.Markets = markets
	reports, err := sched.RunSeedsTracedCtx(context.Background(), market.DefaultConfig(0),
		cloud.DefaultParams(0), cfg, 30*sim.Day, seeds, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	avg := metrics.Average(reports)
	fmt.Printf("%-28s cost=%5.1f%%  unavail=%.4f%%  migrations: %d planned, %d reverse, %d cross-region\n",
		name, 100*avg.NormalizedCost(), 100*avg.Unavailability(),
		avg.Migrations.Planned, avg.Migrations.Reverse, avg.Migrations.CrossRegion)
	return avg
}

func main() {
	seeds := []int64{5, 6, 7}
	home := market.ID{Region: "us-east-1a", Type: "small"}

	east := []market.ID{}
	for _, ty := range []market.InstanceType{"small", "medium", "large", "xlarge"} {
		east = append(east, market.ID{Region: "us-east-1a", Type: ty})
	}
	eu := []market.ID{}
	for _, ty := range []market.InstanceType{"small", "medium", "large", "xlarge"} {
		eu = append(eu, market.ID{Region: "eu-west-1a", Type: ty})
	}

	fmt.Println("Fleet of 4 unit VMs, proactive bidding, 3 seeds x 30 days")
	fmt.Println()
	single := run("single market (small only)", east[:1], home, seeds)
	multi := run("multi-market (us-east-1a)", east, home, seeds)
	region := run("multi-region (east + eu)", append(append([]market.ID{}, east...), eu...), home, seeds)

	fmt.Println()
	fmt.Printf("multi-market saves %.0f%% over single-market;", 100*(1-multi.NormalizedCost()/single.NormalizedCost()))
	fmt.Printf(" adding a second region changes cost by %+.0f%%\n",
		100*(region.NormalizedCost()/multi.NormalizedCost()-1))
	fmt.Println("(the paper: multi-market cuts 8-52%; multi-region cuts more but can")
	fmt.Println("hurt availability when the cheaper region is also the more volatile one)")
}
