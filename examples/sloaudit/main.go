// SLO audit: host a portfolio of three services (a shop, an API, and a
// batch tier) on one simulated cloud for a quarter, then audit every
// service's monthly availability against the paper's four-nines
// requirement — including error-budget burn and the downtime episode
// distribution.
//
// Run with: go run ./examples/sloaudit
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

func main() {
	const days = 90
	mcfg := market.DefaultConfig(2026)
	mcfg.Horizon = days * sim.Day
	prices, err := market.Generate(mcfg)
	if err != nil {
		log.Fatal(err)
	}

	p := sched.NewPortfolio(prices, cloud.DefaultParams(2026))

	add := func(name string, home market.ID, b sched.Bidding, mech vm.Mechanism) {
		cfg, err := sched.DefaultConfig(home)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Bidding = b
		cfg.Mechanism = mech
		if err := p.AddAt(0, name, cfg); err != nil {
			log.Fatal(err)
		}
	}
	add("shop", market.ID{Region: "us-east-1a", Type: "medium"}, sched.Proactive, vm.CKPTLazyLive)
	add("api", market.ID{Region: "us-west-1a", Type: "small"}, sched.Reactive, vm.CKPTLazy)
	add("batch", market.ID{Region: "us-east-1b", Type: "large"}, sched.PureSpot, vm.CKPTLazy)

	if err := p.RunCtx(context.Background(), days*sim.Day); err != nil {
		log.Fatal(err)
	}

	// The paper's bar: four nines, about 4.3 minutes of downtime a month.
	target := 0.9999
	const month = 30 * sim.Day
	fmt.Printf("Quarterly SLO audit against %g%% (budget %.1f min/month)\n\n",
		target*100, budget(target, month)/sim.Minute)
	for _, name := range p.Services() {
		rep, err := p.Report(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s  (policy %s, cost %.0f%% of on-demand)\n",
			name, rep.Policy, 100*rep.NormalizedCost())
		for i, w := range windows(rep.DowntimeLog, target, month, days*sim.Day) {
			status := "OK"
			if !w.ok {
				status = "VIOLATED"
			}
			fmt.Printf("  month %d: availability %.4f%%  downtime %5.1f min  budget burn %5.1f%%  %s\n",
				i+1, 100*w.avail, w.down/sim.Minute, 100*w.burn, status)
		}
		n, mean, p95 := episodes(rep.DowntimeLog)
		fmt.Printf("  episodes: %d (mean %.1fs, p95 %.1fs, max %.1fs)\n\n",
			n, mean, p95, rep.LongestDowntime)
	}

	tot := p.Totals()
	fmt.Printf("portfolio: %d services, consolidated cost %.0f%% of on-demand, worst availability %s (%.4f%%)\n",
		tot.Services, 100*tot.NormalizedCost(), tot.WorstService,
		100*(1-tot.WorstUnavailability))
	fmt.Println("\nTakeaway: the proactive+migration services hold four nines at ~20%")
	fmt.Println("of the on-demand price; the pure-spot batch tier blows its budget in")
	fmt.Println("every month it hits a price spike — exactly the paper's Table 3.")
}

// budget is the downtime a target allows over span seconds.
func budget(target, span float64) float64 { return (1 - target) * span }

// window is one audit window [start, end) graded against the target.
type window struct {
	start, end float64
	down       float64 // the window's share of every downtime episode
	avail      float64
	burn       float64 // down as a fraction of the window's budget
	ok         bool    // avail meets the target
}

// windows clips the downtime log to consecutive windows of length month
// over [0, horizon); the last window is cut short at horizon.
func windows(downtime []metrics.Interval, target, month, horizon float64) []window {
	var out []window
	for w0 := 0.0; w0 < horizon; w0 += month {
		w := window{start: w0, end: min(w0+month, horizon)}
		for _, iv := range downtime {
			if lo, hi := max(iv.Start, w.start), min(iv.End, w.end); hi > lo {
				w.down += hi - lo
			}
		}
		w.avail = 1 - w.down/(w.end-w.start)
		w.burn = w.down / budget(target, w.end-w.start)
		w.ok = w.avail >= target
		out = append(out, w)
	}
	return out
}

// episodes returns the count, mean and p95 of the log's episode lengths.
// Down and up at one instant is no outage, so zero-length episodes are
// skipped.
func episodes(downtime []metrics.Interval) (n int, mean, p95 float64) {
	var lens []float64
	total := 0.0
	for _, iv := range downtime {
		if d := iv.End - iv.Start; d > 0 {
			lens = append(lens, d)
			total += d
		}
	}
	if n = len(lens); n > 0 {
		sort.Float64s(lens)
		mean, p95 = total/float64(n), lens[int(0.95*float64(n-1))]
	}
	return n, mean, p95
}
