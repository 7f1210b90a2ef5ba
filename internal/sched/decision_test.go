package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// TestDecisionDigest pins the scheduler's hour-boundary decisions bit for
// bit on the shapes the other digests skip: the envelope fast path
// (lambda = 0) under hysteresis 0, 0.1 and 0.3; proactive bids of 1.05x
// (the envelope's argmin is often above its own bid, so the linear scan
// runs) and 4x; reactive bidding; and multi-region candidate sets, where
// the current group's region, and with it the decision lead, changes
// mid-run. The WAN link table is symmetric, so over {us-east-1, eu-west-1}
// the worst link is the same from either side; adding us-west-1a, whose
// link to eu-west-1 is the slowest, makes the lead depend on the region.
// It hashes each traced 30-day month's report and spans.
func TestDecisionDigest(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()
	shapes := map[string]Config{
		"single":       mustConfig(t),
		"east-eu":      regionsConfig(t, "us-east-1a", "us-east-1b", "eu-west-1a"),
		"east-eu-west": regionsConfig(t, "us-east-1a", "us-east-1b", "eu-west-1a", "us-west-1a"),
	}
	policies := []struct {
		bidding  Bidding
		multiple float64
	}{{Proactive, 1.05}, {Proactive, 4}, {Reactive, 4}}
	cross := 0
	for _, seed := range []int64{3, 17, 59} {
		set := digestUniverse(t, seed)
		for _, name := range []string{"single", "east-eu", "east-eu-west"} {
			for _, pol := range policies {
				for _, hyst := range []float64{0, 0.1, 0.3} {
					cfg := shapes[name]
					cfg.Bidding = pol.bidding
					cfg.BidMultiple = pol.multiple
					cfg.Hysteresis = hyst
					rec := trace.NewRecorder("run")
					rep, err := RunTracedCtx(ctx, set, cloud.DefaultParams(seed), cfg, 30*sim.Day, rec)
					if err != nil {
						t.Fatal(err)
					}
					cross += rep.Migrations.CrossRegion
					fmt.Fprintf(h, "seed=%d %s %v bid=%v hyst=%v %+v\n%+v\n",
						seed, name, pol.bidding, pol.multiple, hyst, rep, rec.Spans())
				}
			}
		}
	}
	if cross == 0 {
		t.Fatal("no run migrated across regions")
	}
	const want = "919f7cfe777d3ecb3e9580e63c316789b1466ed4bc7a5f6211b7b9f3b717d405"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("decision digest = %s, want %s", got, want)
	}
}

// regionsConfig hosts four one-unit VMs on any of the four default types
// in each of the given regions, with home us-east-1a small.
func regionsConfig(t *testing.T, regions ...market.Region) Config {
	t.Helper()
	cfg := mustConfig(t)
	cfg.Service = UnitFleet(4)
	cfg.Markets = nil
	for _, r := range regions {
		for _, ts := range market.DefaultTypes() {
			cfg.Markets = append(cfg.Markets, market.ID{Region: r, Type: ts.Name})
		}
	}
	return cfg
}
