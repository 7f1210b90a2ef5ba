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
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/trace"
	"spothost/internal/vm"
)

func parsePolicy(s string) (sched.Bidding, error) {
	switch s {
	case "on-demand", "on-demand-only", "baseline":
		return sched.OnDemandOnly, nil
	case "reactive":
		return sched.Reactive, nil
	case "proactive":
		return sched.Proactive, nil
	case "pure-spot", "spot":
		return sched.PureSpot, nil
	}
	return 0, fmt.Errorf("unknown policy %q (on-demand|reactive|proactive|pure-spot)", s)
}

func parseMechanism(s string) (vm.Mechanism, error) {
	switch s {
	case "ckpt":
		return vm.CKPT, nil
	case "ckpt-lr":
		return vm.CKPTLazy, nil
	case "ckpt-live":
		return vm.CKPTLive, nil
	case "ckpt-lr-live":
		return vm.CKPTLazyLive, nil
	case "naive":
		return vm.Naive, nil
	}
	return 0, fmt.Errorf("unknown mechanism %q (ckpt|ckpt-lr|ckpt-live|ckpt-lr-live|naive)", s)
}

func parseMarkets(s string) ([]market.ID, error) {
	if s == "" {
		return nil, nil
	}
	var out []market.ID
	for _, part := range strings.Split(s, ",") {
		bits := strings.Split(strings.TrimSpace(part), "/")
		if len(bits) != 2 || bits[0] == "" || bits[1] == "" {
			return nil, fmt.Errorf("bad market %q, want region/type", part)
		}
		out = append(out, market.ID{Region: market.Region(bits[0]), Type: market.InstanceType(bits[1])})
	}
	return out, nil
}

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

	policy, err := parsePolicy(*policyF)
	cli.Check(err)
	mech, err := parseMechanism(*mechF)
	cli.Check(err)
	extraMarkets, err := parseMarkets(*marketsF)
	cli.Check(err)

	home := market.ID{Region: market.Region(*regionF), Type: market.InstanceType(*typeF)}
	cfg, err := sched.DefaultConfig(home, market.DefaultTypes())
	cli.Check(err)
	cfg.Bidding = policy
	cfg.Mechanism = mech
	if *pessimistF {
		cfg.VMParams = vm.PessimisticParams()
	}
	if len(extraMarkets) > 0 {
		cfg.Markets = extraMarkets
	}
	if *vmsF > 0 {
		cfg.Service = sched.ServiceSpec{
			VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
			Count: *vmsF,
		}
	}

	horizon := run.Days() * sim.Day
	var reports []metrics.Report
	if *tracesF != "" {
		f, err := os.Open(*tracesF)
		cli.Check(err)
		var set *market.Set
		switch *formatF {
		case "csv":
			set, err = market.ReadCSV(f)
		case "aws-json":
			set, err = replay.LoadJSON(f, replay.Options{Product: *productF})
		case "aws-legacy":
			set, err = replay.LoadLegacy(f, replay.Options{Product: *productF})
		default:
			err = fmt.Errorf("unknown trace format %q", *formatF)
		}
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
		reports, err = sched.RunSeedsTracedCtx(run.Context(), mcfg, cloud.DefaultParams(0), cfg, horizon, run.Seeds(), 0, run.Trace)
		cli.Check(err)
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
