// Command advise answers "which policy and mechanism should host my
// service?": it sweeps the policy x mechanism matrix over synthetic or
// replayed prices, filters by an availability target, prices downtime
// under your revenue model, and ranks by net benefit.
//
// Usage:
//
//	advise -region us-east-1a -type small -revenue-rps 40 -revenue-per-req 0.001
//	advise -target 0.999 -days 30 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"spothost/internal/advisor"
	"spothost/internal/cloud"
	"spothost/internal/econ"
	"spothost/internal/market"
	"spothost/internal/sim"
)

func main() {
	region := flag.String("region", "us-east-1a", "home region")
	typeF := flag.String("type", "small", "home instance type")
	days := flag.Float64("days", 30, "evaluation horizon in days")
	seed := flag.Int64("seed", 42, "price universe seed")
	target := flag.Float64("target", 0.9999, "availability objective (0 disables)")
	rps := flag.Float64("revenue-rps", 0, "served requests per second")
	perReq := flag.Float64("revenue-per-req", 0, "revenue per request, dollars")
	degraded := flag.Float64("degraded-loss", 0.3, "revenue fraction lost while degraded")
	flag.Parse()

	mcfg := market.DefaultConfig(*seed)
	mcfg.Horizon = *days * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		fatal(err)
	}
	rec, err := advisor.Advise(set, cloud.DefaultParams(*seed), advisor.Request{
		Home:   market.ID{Region: market.Region(*region), Type: market.InstanceType(*typeF)},
		Target: *target,
		Revenue: econ.RevenueModel{
			RequestsPerSecond:  *rps,
			RevenuePerRequest:  *perReq,
			DegradedLossFactor: *degraded,
		},
		Horizon: *days * sim.Day,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(rec.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
