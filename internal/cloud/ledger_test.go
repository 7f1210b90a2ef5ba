package cloud

import (
	"math"
	"testing"

	"spothost/internal/sim"
)

// buildLedgerFixture runs a mixed workload and returns the provider.
func buildLedgerFixture(t *testing.T) (*sim.Engine, *Provider) {
	t.Helper()
	eng, p := newTestProvider(t)
	// Spot instance revoked by the 7200 spike (partial hour refunded).
	if _, err := p.RequestSpot(mSmall, 0.06, Callbacks{}); err != nil {
		t.Fatal(err)
	}
	// On-demand instance running throughout.
	if _, err := p.RequestOnDemand(mLarge, Callbacks{}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Hour)
	return eng, p
}

func TestLedgerByInstance(t *testing.T) {
	_, p := buildLedgerFixture(t)
	by := p.Ledger().ByInstance()
	sum := 0.0
	for _, v := range by {
		sum += v
	}
	if math.Abs(sum-p.Ledger().Total()) > 1e-9 {
		t.Fatalf("by-instance sum %v != total %v", sum, p.Ledger().Total())
	}
}

func TestLedgerRefunds(t *testing.T) {
	_, p := buildLedgerFixture(t)
	// The revoked spot instance's in-progress hour was refunded.
	refunded := 0.0
	for _, c := range p.Ledger().Entries() {
		if c.Kind == ChargeRefund {
			refunded -= c.Amount
		}
	}
	if refunded <= 0 {
		t.Fatalf("refunds = %v, want positive", refunded)
	}
}
