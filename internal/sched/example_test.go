package sched_test

import (
	"context"
	"fmt"
	"log"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

// ExampleRun hosts one service VM on a hand-written price script: the spot
// price spikes past the 4x bid once, forcing a single checkpoint-and-
// restore migration onto on-demand, followed by a reverse migration when
// the market calms.
func ExampleRun() {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	trace, err := market.NewTrace(home, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30}, // above the 4x bid cap: revocation
		{T: 20000, Price: 0.01},
	}, 48*sim.Hour)
	if err != nil {
		log.Fatal(err)
	}
	prices, err := market.NewSet([]*market.Trace{trace}, map[market.ID]float64{home: 0.06})
	if err != nil {
		log.Fatal(err)
	}

	cfg, err := sched.DefaultConfig(home)
	if err != nil {
		log.Fatal(err)
	}
	// Deterministic allocation latencies so the output is stable.
	params := cloud.DefaultParams(1)
	params.StartupCV = 0
	params.OnDemandStartupMean = map[string]sim.Duration{cloud.DefaultStartupClass: 95}
	params.SpotStartupMean = map[string]sim.Duration{cloud.DefaultStartupClass: 240}

	report, err := sched.Run(prices, params, cfg, 48*sim.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forced=%d reverse=%d downtime=%.0fs cheaper=%v\n",
		report.Migrations.Forced, report.Migrations.Reverse,
		report.DowntimeSeconds, report.Cost < report.BaselineCost)
	// Output:
	// forced=1 reverse=1 downtime=23s cheaper=true
}

// ExampleNewPortfolio hosts two services on one simulated cloud and reads
// the consolidated bill.
func ExampleNewPortfolio() {
	mcfg := market.DefaultConfig(42)
	mcfg.Horizon = 5 * sim.Day
	prices, err := market.Generate(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	p := sched.NewPortfolio(prices, cloud.DefaultParams(42))
	for _, svc := range []struct {
		name string
		home market.ID
	}{
		{"shop", market.ID{Region: "us-east-1a", Type: "medium"}},
		{"api", market.ID{Region: "eu-west-1a", Type: "small"}},
	} {
		cfg, err := sched.DefaultConfig(svc.home)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.AddAt(0, svc.name, cfg); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.RunCtx(context.Background(), 5*sim.Day); err != nil {
		log.Fatal(err)
	}
	tot := p.Totals()
	fmt.Printf("services=%d savings=%v\n", tot.Services, tot.NormalizedCost() < 0.5)
	// Output:
	// services=2 savings=true
}
