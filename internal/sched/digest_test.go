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
	if err := p.Add("twin-a", twin); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("twin-b", twin); err != nil {
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
	if err := p.Run(30 * sim.Day); err != nil {
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
