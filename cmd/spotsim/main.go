// Command spotsim hosts a simulated always-on service on the cloud spot
// market under a chosen bidding policy and migration mechanism, and prints
// the cost/availability report.
//
// Usage:
//
//	spotsim -policy proactive -mechanism ckpt-lr-live -type small -days 30
//	spotsim -policy proactive -markets us-east-1a/small,us-east-1a/large -vms 4
//	spotsim -traces prices.csv -policy reactive
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spothost/internal/cli"
	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/replay"
	"spothost/internal/scenario"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

var (
	run        = cli.Register(cli.Flags{Seeds: 3, Stride: 17, Days: 30, Trace: true})
	policyF    = flag.String("policy", "proactive", "bidding policy")
	mechF      = flag.String("mechanism", "ckpt-lr-live", "migration mechanism")
	regionF    = flag.String("region", "us-east-1a", "home region")
	typeF      = flag.String("type", "small", "home instance type")
	marketsF   = flag.String("markets", "", "candidate spot markets as region/type,... (default: the home market)")
	vmsF       = flag.Int("vms", 0, "host a fleet of N unit VMs instead of one market-sized VM")
	tracesF    = flag.String("traces", "", "trace file to replay instead of synthetic prices")
	formatF    = flag.String("format", "csv", "trace file format: csv (tracegen), aws-json (describe-spot-price-history), aws-legacy (ec2-api-tools)")
	productF   = flag.String("product", "Linux/UNIX", "product filter for AWS trace formats")
	pessimistF = flag.Bool("pessimistic", false, "use worst-case migration constants")
	verboseF   = flag.Bool("v", false, "print each seed's report")
)

func main() {
	run.Parse()
	ph := trace.NewPhases()

	svc := scenario.ServiceDef{
		Region:      *regionF,
		Type:        *typeF,
		Policy:      *policyF,
		Mechanism:   *mechF,
		VMs:         *vmsF,
		Pessimistic: *pessimistF,
	}
	if *marketsF != "" {
		svc.Markets = strings.Split(*marketsF, ",")
	}
	cfg, err := svc.Config()
	cli.Check(err)

	horizon := run.Days() * sim.Day
	var reports []metrics.Report
	if *tracesF != "" {
		f, err := os.Open(*tracesF)
		cli.Check(err)
		set, err := replay.Load(*formatF, f, *productF)
		f.Close()
		cli.Check(err)
		ph.Mark("load")
		rec := run.Trace.Run("replay")
		r, err := sched.RunTracedCtx(run.Context(), set, cloud.DefaultParams(1), cfg, horizon, rec)
		cli.Check(err)
		run.Trace.Done(rec)
		reports = append(reports, r)
	} else {
		mcfg := market.DefaultConfig(0)
		if horizon > mcfg.Horizon {
			mcfg.Horizon = horizon
		}
		ph.Mark("load")
		grid, err := sched.RunSeedsTracedCtx(run.Context(), mcfg, []sched.Config{cfg}, nil,
			horizon, run.Seeds(), 0, run.Trace)
		cli.Check(err)
		reports = grid[0]
	}
	ph.Mark("sim")

	if *verboseF {
		for i, r := range reports {
			fmt.Printf("--- run %d ---\n%s\n", i+1, r)
		}
	}
	avg := metrics.Average(reports)
	fmt.Printf("=== average over %d run(s) ===\n%s\n", len(reports), avg)
	cli.Check(run.Export())
	ph.Mark("report")
	fmt.Fprintf(os.Stderr, "timing: %s\n", ph)
}
