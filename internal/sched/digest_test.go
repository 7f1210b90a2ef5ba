package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
	"spothost/internal/vm"
)

// TestCheckpointDigest pins checkpoint I/O bit for bit to a digest
// recorded while the Yank daemon still ran as engine events. It hashes
// each cold traced month's report and its Prometheus histograms (the
// checkpoint-duration histogram's sum is order-sensitive) over every
// mechanism, four checkpoint bounds, three bidding policies and both
// market shapes, then a traced portfolio whose two same-spec services
// start together next to one that joins and leaves mid-run.
func TestCheckpointDigest(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()
	mechanisms := []vm.Mechanism{vm.Naive, vm.CKPT, vm.CKPTLazy, vm.CKPTLive, vm.CKPTLazyLive}
	for _, seed := range []int64{5, 23, 41} {
		set := digestUniverse(t, seed)
		for _, mech := range mechanisms {
			for _, tau := range []sim.Duration{1, 3, 7.5, 40} {
				for _, bidding := range []Bidding{Proactive, Reactive, PureSpot} {
					single := mustConfig(t)
					single.Bidding = bidding
					for _, cfg := range []Config{single, multiConfig(t, bidding, 0)} {
						cfg.Mechanism = mech
						cfg.VMParams.CheckpointBound = tau
						col := trace.NewHistogramCollector()
						rec := col.Run("run")
						rep, err := RunTracedCtx(ctx, set, cloud.DefaultParams(seed), cfg, 30*sim.Day, rec)
						if err != nil {
							t.Fatal(err)
						}
						col.Done(rec)
						fmt.Fprintf(h, "seed=%d %v tau=%v %v markets=%d %+v\n",
							seed, mech, tau, bidding, len(cfg.Markets), rep)
						col.WritePrometheus(h, "spothost")
					}
				}
			}
		}
	}
	hashPortfolio(t, h)

	const want = "2547440c2fa49b4381a188d57139c1e716a594bcfdc79b12071459981d381a7c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("checkpoint digest = %s, want %s", got, want)
	}
}

// hashPortfolio runs a traced 30-day portfolio on one shared engine: two
// same-spec services that start at the same instant and, with fixed
// allocation latencies, boot together, so their checkpoint writes tie;
// and a third that starts and stops mid-run.
func hashPortfolio(t *testing.T, h hash.Hash) {
	t.Helper()
	p := NewPortfolio(digestUniverse(t, 23), fixedCloudParams())
	col := trace.NewHistogramCollector()
	rec := col.Run("portfolio")
	p.SetRecorder(rec)
	twin := multiConfig(t, Proactive, 0)
	if err := p.AddAt(0, "twin-a", twin); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAt(0, "twin-b", twin); err != nil {
		t.Fatal(err)
	}
	surge := mustConfig(t)
	surge.Mechanism = vm.CKPTLazy
	surge.VMParams.CheckpointBound = 7.5
	if err := p.AddAt(3*sim.Day+1234.5, "surge", surge); err != nil {
		t.Fatal(err)
	}
	if err := p.StopAt(17*sim.Day+77, "surge"); err != nil {
		t.Fatal(err)
	}
	if err := p.RunCtx(context.Background(), 30*sim.Day); err != nil {
		t.Fatal(err)
	}
	col.Done(rec)
	for _, name := range p.Services() {
		rep, err := p.Report(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %+v\n", name, rep)
	}
	col.WritePrometheus(h, "spothost")
}

// digestUniverse is the default synthetic universe over 30 days.
func digestUniverse(t *testing.T, seed int64) *market.Set {
	t.Helper()
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = 30 * sim.Day
	set, err := market.SharedCache().Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPureSpotPortfolioDigest pins the order in which waiting pure-spot
// services wake up when they share one engine. Per seed, a us-east-1a
// portfolio runs, for each instance type, a pure-spot, a proactive, a
// reactive and a second pure-spot service, alternating single-market and
// four-VM multi-market configs, added 3 h + 17 s apart. Waiting services
// that watch the same market retry at the same price change, in the
// order the provider's price clock drains them; a wake-up delivered by
// any other route (an engine event posted at the first grantable change,
// say) reorders those retries and moves the reports.
func TestPureSpotPortfolioDigest(t *testing.T) {
	h := sha256.New()
	biddings := []Bidding{PureSpot, Proactive, Reactive, PureSpot}
	for _, seed := range []int64{1, 2, 3} {
		p := NewPortfolio(digestUniverse(t, seed), cloud.DefaultParams(seed))
		k := 0
		for _, ts := range market.DefaultTypes() {
			id := market.ID{Region: "us-east-1a", Type: ts.Name}
			for _, bidding := range biddings {
				cfg, err := DefaultConfig(id)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Bidding = bidding
				if k%2 == 1 {
					cfg.Service = UnitFleet(4)
					for _, other := range market.DefaultTypes() {
						if other.Name != ts.Name {
							cfg.Markets = append(cfg.Markets, market.ID{Region: id.Region, Type: other.Name})
						}
					}
				}
				name := fmt.Sprintf("%s-%d-%v", ts.Name, k, bidding)
				if err := p.AddAt(sim.Time(k)*(3*sim.Hour+17), name, cfg); err != nil {
					t.Fatal(err)
				}
				k++
			}
		}
		if err := p.RunCtx(context.Background(), 30*sim.Day); err != nil {
			t.Fatal(err)
		}
		for _, name := range p.Services() {
			rep, err := p.Report(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "seed=%d %s %+v\n", seed, name, rep)
		}
	}
	const want = "98c563d8a57ca9682cf19b4793b09ed2b0298dbdc11a764f42e1c16f9e29e0be"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("pure-spot portfolio digest = %s, want %s", got, want)
	}
}
