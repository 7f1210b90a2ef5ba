package cloud

import (
	"math"
	"testing"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
)

// TestProviderRandomWorkload drives the provider with a random sequence of
// spot/on-demand requests and terminations over a volatile generated
// universe and checks global billing invariants:
//
//   - the ledger total equals the sum of per-instance charges,
//   - no instance is ever charged a negative net amount,
//   - every revoked instance's lifetime partial hour was forgiven,
//   - counters are mutually consistent.
func TestProviderRandomWorkload(t *testing.T) {
	mcfg := market.DefaultConfig(61)
	mcfg.Horizon = 8 * sim.Day
	mcfg.SpikesPerDay = 8 // busy revocation traffic
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	prov := NewProvider(eng, set, DefaultParams(61))
	rng := randx.Derive(61, "fuzz/cloud")

	ids := set.IDs()
	var mine []*Instance
	launch := func() {
		id := ids[int(rng.Uniform(0, float64(len(ids))))]
		od := prov.OnDemandPrice(id)
		var in *Instance
		var err error
		if rng.Bernoulli(0.6) {
			bid := od * rng.Uniform(0.5, 4)
			in, err = prov.RequestSpot(id, bid, Callbacks{})
		} else {
			in, err = prov.RequestOnDemand(id, Callbacks{})
		}
		if err == nil {
			mine = append(mine, in)
		}
	}
	// Random request/terminate churn across the whole horizon.
	for i := 0; i < 400; i++ {
		at := rng.Uniform(0, 7*sim.Day)
		eng.Schedule(at, launch)
	}
	for i := 0; i < 200; i++ {
		at := rng.Uniform(sim.Hour, 8*sim.Day)
		eng.Schedule(at, func() {
			if len(mine) == 0 {
				return
			}
			in := mine[int(rng.Uniform(0, float64(len(mine))))]
			if in.State() == Running || in.State() == Pending {
				_ = prov.Terminate(in)
			}
		})
	}
	eng.RunUntil(8 * sim.Day)

	// Invariant 1: ledger total = sum of instance charges.
	var sum float64
	for _, in := range mine {
		if in.Charged() < -1e-9 {
			t.Fatalf("%v charged negative: %v", in, in.Charged())
		}
		sum += in.Charged()
	}
	if math.Abs(sum-prov.Ledger().Total()) > 1e-6 {
		t.Fatalf("instance sum %v != ledger %v", sum, prov.Ledger().Total())
	}
	// Invariant 2: per-instance ledger agrees with Charged().
	byInst := prov.Ledger().ByInstance()
	for _, in := range mine {
		if got := byInst[in.ID()]; math.Abs(got-in.Charged()) > 1e-9 {
			t.Fatalf("%v: ledger %v vs charged %v", in, got, in.Charged())
		}
	}
	// Invariant 3: revoked instances never pay for the hour in progress
	// at revocation (their last charge interval is complete or refunded):
	// equivalently, charged = price-at-start of each COMPLETED hour. We
	// verify the weaker, universally-checkable form: the net charge is a
	// sum of non-negative hour charges (>= 0, already checked) and every
	// ReasonRevoked instance has a refund or died exactly on a boundary.
	refundsByInstance := map[InstanceID]bool{}
	for _, c := range prov.Ledger().Entries() {
		if c.Kind == ChargeRefund {
			refundsByInstance[c.Instance] = true
		}
	}
	for _, in := range mine {
		if in.State() == Terminated && in.Reason() == ReasonRevoked {
			elapsed := in.TerminatedAt() - in.RunningAt()
			onBoundary := math.Mod(elapsed, sim.Hour) < 1e-6
			if !onBoundary && !refundsByInstance[in.ID()] && in.Charged() > 0 {
				t.Fatalf("%v revoked mid-hour without refund", in)
			}
		}
	}
	// Invariant 4: counters consistent.
	c := prov.Counters()
	if c.SpotLaunched > c.SpotRequests {
		t.Fatalf("counters: %+v", c)
	}
	if c.Revocations < 0 || c.NeverGranted < 0 {
		t.Fatalf("counters: %+v", c)
	}
	if prov.Ledger().Total() <= 0 {
		t.Fatal("fuzz run billed nothing")
	}
}
