// Replay AWS spot price history: feed the scheduler real (here: bundled
// sample) `aws ec2 describe-spot-price-history` output — the exact data
// source the paper seeded its simulations with — and compare the hosting
// policies on it.
//
// To use your own data:
//
//	aws ec2 describe-spot-price-history \
//	  --instance-types m1.small --product-descriptions "Linux/UNIX" \
//	  --start-time 2015-02-01 --end-time 2015-03-01 > history.json
//	go run ./cmd/spotsim -traces history.json -format aws-json
//
// Run with: go run ./examples/replayaws
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/replay"
	"spothost/internal/sched"
)

// sampleHistory synthesizes two weeks of plausible m1.small history in the
// AWS JSON format — stand in your own dump here.
func sampleHistory() string {
	var b strings.Builder
	b.WriteString(`{"SpotPriceHistory":[`)
	base := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	first := true
	emit := func(at time.Time, price float64) {
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, `{"AvailabilityZone":"us-east-1a","InstanceType":"m1.small",`+
			`"ProductDescription":"Linux/UNIX","SpotPrice":"%.4f","Timestamp":"%s"}`,
			price, at.Format(time.RFC3339))
	}
	for day := 0; day < 14; day++ {
		d := base.AddDate(0, 0, day)
		emit(d, 0.0071)
		emit(d.Add(9*time.Hour), 0.0085)
		// Every third day the market runs hot for two hours.
		if day%3 == 1 {
			emit(d.Add(13*time.Hour), 0.0920)
			emit(d.Add(15*time.Hour), 0.0079)
		}
		// Day 7 has a violent spike past any permissible bid.
		if day == 7 {
			emit(d.Add(20*time.Hour), 0.4100)
			emit(d.Add(21*time.Hour), 0.0074)
		}
	}
	b.WriteString(`]}`)
	return b.String()
}

func main() {
	prices, err := replay.Load("aws-json", strings.NewReader(sampleHistory()), "Linux/UNIX")
	if err != nil {
		log.Fatal(err)
	}
	home := market.ID{Region: "us-east-1a", Type: "small"}
	fmt.Printf("replaying %d markets over %.1f days of history\n\n",
		len(prices.IDs()), prices.Horizon()/86400)

	fmt.Printf("%-12s %9s %12s %9s %s\n", "policy", "cost", "unavail", "downtime", "migrations (F/P/R)")
	for _, b := range []sched.Bidding{sched.OnDemandOnly, sched.Reactive, sched.Proactive, sched.PureSpot} {
		cfg, err := sched.DefaultConfig(home)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Bidding = b
		r, err := sched.Run(prices, cloud.DefaultParams(1), cfg, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.1f%% %11.4f%% %8.0fs %d/%d/%d\n",
			b, 100*r.NormalizedCost(), 100*r.Unavailability(), r.DowntimeSeconds,
			r.Migrations.Forced, r.Migrations.Planned, r.Migrations.Reverse)
	}
	fmt.Println("\nthe day-7 spike (> 4x on-demand) forces even the proactive policy to")
	fmt.Println("migrate under the two-minute warning; the every-third-day warm spells")
	fmt.Println("become planned hour-boundary migrations instead.")
}
