package cloud

import (
	"testing"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
)

// TestProviderRandomWorkload drives the provider with a random sequence of
// spot/on-demand requests and terminations over a volatile generated
// universe and checks global billing invariants:
//
//   - no instance is ever charged a negative net amount,
//   - every instance's charge matches the price trace hour by hour, with
//     the hour a revocation cut short refunded (billOracle),
//   - the provider's bill equals the sum of per-instance charges.
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

	for _, in := range mine {
		if in.Charged() < -1e-9 {
			t.Fatalf("%v charged negative: %v", in, in.Charged())
		}
	}
	if refunded := checkBilling(t, prov, eng.Now()); refunded <= 0 {
		t.Fatal("no revocation refunded an hour")
	}
	if reasonCounts(prov)[ReasonRevoked] == 0 {
		t.Fatal("no instance was revoked")
	}
	if prov.Billed() <= 0 {
		t.Fatal("fuzz run billed nothing")
	}
}
