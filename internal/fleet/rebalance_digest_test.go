package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
)

// rebalanceDigest is the SHA-256 of the reports, decision ledger and
// timeline CSV of TestRebalanceDigest's fleets.
const rebalanceDigest = "e17d15eda850d5b7e1d1e894fbc1bd53fb516e6e80dbba3faf0f5207f0fd0abc"

// TestRebalanceDigest pins mixed-size fleets under configurations that
// stress spot-to-spot rebalancing beyond TestTypedGolden's default
// fleet: a bid of exactly on-demand, so spiking markets drop out of the
// candidate list while their prices stay in every same-size comparison;
// a 7-minute tick, so ticks straddle hour boundaries at shifting
// offsets; a market list of only the 4- and 8-unit types; and all three
// at once. Every strategy runs on three universes with telemetry on, and
// the digest covers the reports, the NDJSON ledger and the timeline CSV.
func TestRebalanceDigest(t *testing.T) {
	horizon := 20 * sim.Day
	cat := catalog.Default()
	mcfg := market.DefaultConfig(0)
	mcfg.Types = cat.TypeSpecs()
	seeds := []int64{851283, 912282, 393247}
	bigOnly := func(set *market.Set) []market.ID {
		var ids []market.ID
		for _, id := range set.IDs() {
			if e, _ := cat.Lookup(id.Type); e.Units == 4 || e.Units == 8 {
				ids = append(ids, id)
			}
		}
		return ids
	}
	variants := []struct {
		name string
		edit func(cfg *Config, set *market.Set)
	}{
		{"bid1", func(cfg *Config, _ *market.Set) { cfg.BidMultiple = 1.0 }},
		{"tick7", func(cfg *Config, _ *market.Set) { cfg.Tick = 7 * sim.Minute }},
		{"big", func(cfg *Config, set *market.Set) { cfg.Markets = bigOnly(set) }},
		{"all", func(cfg *Config, set *market.Set) {
			cfg.BidMultiple = 1.0
			cfg.Tick = 7 * sim.Minute
			cfg.Markets = bigOnly(set)
		}},
	}
	col := obs.NewCollector(obs.Config{})
	var reps []Report
	for _, v := range variants {
		for _, strat := range Strategies() {
			for _, seed := range seeds {
				set, cp, err := cloud.Seeded(mcfg, cloud.DefaultParams(0), seed)
				if err != nil {
					t.Fatal(err)
				}
				demand, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, seed))
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Strategy:   strat,
					Demand:     demand,
					Planner:    LinearPlanner{PerReplica: 6},
					Catalog:    cat,
					AnchorType: "small",
				}
				v.edit(&cfg, set)
				rec := col.Run(fmt.Sprintf("%s/%s/%d", v.name, strat.Name(), seed))
				rep, err := RunObsCtx(context.Background(), set, cp, cfg, horizon, nil, rec)
				if err != nil {
					t.Fatal(err)
				}
				col.Done(rec)
				reps = append(reps, rep)
			}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reps); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteLedgerNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var rebalances int
	for _, r := range reps {
		rebalances += r.Rebalances
	}
	if rebalances == 0 {
		t.Fatal("no fleet rebalanced; the digest would not cover the rebalance path")
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != rebalanceDigest {
		t.Fatalf("rebalance digest = %s, want %s (%d rebalances)", got, rebalanceDigest, rebalances)
	}
}
