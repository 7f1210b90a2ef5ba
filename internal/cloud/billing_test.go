package cloud

import (
	"math"
	"testing"

	"spothost/internal/sim"
)

// instances returns the provider's instance table in ID order.
func instances(p *Provider) []*Instance {
	var out []*Instance
	for id := InstanceID(0); p.Instance(id) != nil; id++ {
		out = append(out, p.Instance(id))
	}
	return out
}

// reasonCounts tallies the terminated instances by termination reason.
func reasonCounts(p *Provider) map[TerminationReason]int {
	out := map[TerminationReason]int{}
	for _, in := range instances(p) {
		if in.State() == Terminated {
			out[in.Reason()]++
		}
	}
	return out
}

// billOracle recomputes an instance's bill from the price trace: one
// charge per instance-hour, the hours stepped t += sim.Hour from RunningAt
// up to termination (or through now for a live instance), each at the spot
// price at the hour's start (the on-demand price for on-demand). A
// revocation inside an hour refunds that hour. It returns the net charge
// and the refund.
func billOracle(p *Provider, in *Instance, now sim.Time) (net, refund float64) {
	if in.RunningAt() == 0 {
		return 0, 0 // never booted: allocation latencies are positive
	}
	var last float64
	for t := in.RunningAt(); ; t += sim.Hour {
		if in.State() == Terminated && t >= in.TerminatedAt() || t > now {
			if in.Reason() == ReasonRevoked && in.TerminatedAt() < t {
				refund = last
			}
			return net - refund, refund
		}
		last = p.OnDemandPrice(in.Market())
		if in.lifecycle == Spot {
			last = p.Markets().Trace(in.Market()).PriceAt(t)
		}
		net += last
	}
}

// checkBilling audits every instance's Charged against billOracle and the
// provider's bill against their sum, and returns the total refunded.
func checkBilling(t *testing.T, p *Provider, now sim.Time) (refunded float64) {
	t.Helper()
	var sum float64
	for _, in := range instances(p) {
		net, refund := billOracle(p, in, now)
		if math.Abs(in.Charged()-net) > 1e-9 {
			t.Fatalf("%v charged %v, trace says %v", in, in.Charged(), net)
		}
		sum += in.Charged()
		refunded += refund
	}
	if math.Abs(sum-p.Billed()) > 1e-9 {
		t.Fatalf("instance charges sum to %v, provider billed %v", sum, p.Billed())
	}
	return refunded
}

// buildBillingFixture runs a mixed workload and returns the provider.
func buildBillingFixture(t *testing.T) (*sim.Engine, *Provider) {
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

func TestBillingMatchesTrace(t *testing.T) {
	eng, p := buildBillingFixture(t)
	checkBilling(t, p, eng.Now())
	if p.Billed() <= 0 {
		t.Fatalf("billed %v, want positive", p.Billed())
	}
}

func TestBillingRefundsRevokedHour(t *testing.T) {
	eng, p := buildBillingFixture(t)
	// The revoked spot instance's in-progress hour was refunded.
	if refunded := checkBilling(t, p, eng.Now()); refunded <= 0 {
		t.Fatalf("refunds = %v, want positive", refunded)
	}
	if got := reasonCounts(p)[ReasonRevoked]; got != 1 {
		t.Fatalf("revoked instances = %d, want 1", got)
	}
}

func TestBillingMixedOutcomes(t *testing.T) {
	eng, p := newTestProvider(t)
	// A few instances across both markets with mixed outcomes.
	_, _ = p.RequestSpot(mSmall, 0.06, Callbacks{})
	_, _ = p.RequestSpot(mSmall, 0.24, Callbacks{})
	odIn, _ := p.RequestOnDemand(mLarge, Callbacks{})
	eng.Schedule(5*sim.Hour, func() { _ = p.Terminate(odIn) })
	eng.RunUntil(20 * sim.Hour)

	checkBilling(t, p, eng.Now())
	if p.Billed() <= 0 {
		t.Fatalf("expected positive spend, got %v", p.Billed())
	}
}
