// Steady-state allocation discipline for the hot event loop: once a run is
// warm, the recurring events (market price changes across the whole
// universe, hourly billing) must not allocate — the free list, persistent
// closures, and scratch buffers absorb all of it. This is the loop under
// BenchmarkSchedulerMonth; the pure-engine counterpart lives in
// internal/sim (TestSteadyStateEventLoopZeroAllocs).
package spothost

import (
	"runtime"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// warmLoop builds a provider over a 40-day universe with every market
// listened to and one on-demand instance billing hourly, and runs it 30
// days, past the point where the event heap and free list have reached
// capacity. The no-op subscriptions keep every price change in the
// universe flowing through the provider's price clock, which arms only
// markets someone listens to.
func warmLoop(t *testing.T, eng *sim.Engine) sim.Time {
	t.Helper()
	mcfg := market.DefaultConfig(1)
	mcfg.Horizon = 40 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	prov := cloud.NewProvider(eng, set, cloud.DefaultParams(1))
	for _, id := range set.IDs() {
		prov.SubscribePrice(id, func(sim.Time, float64) {})
	}
	home := market.ID{Region: "us-east-1a", Type: "small"}
	if _, err := prov.RequestOnDemand(home, cloud.Callbacks{}); err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(30 * sim.Day)
	eng.RunUntil(horizon)
	return horizon
}

// maxBytesPerDay bounds the heap a warm simulated day may allocate. A warm
// day measures 0 to 2 bytes (the test binary's own background work), and
// no billing record grows with the run. Counting allocations alone cannot
// see a leak of event structs, since the engine refills its free list a
// slab at a time: an event that is scheduled with a handle and never
// recycled costs a fraction of an allocation but 40 bytes. The smallest
// refill after warm-up is 128 events (5 KiB), which averages 853 bytes
// over the six measured days, so one leaked slab exceeds this bound.
const maxBytesPerDay = 512

// checkWarmDays runs the warm loop one simulated day at a time and fails
// unless it averages under one allocation and maxBytesPerDay per day.
func checkWarmDays(t *testing.T, eng *sim.Engine, horizon sim.Time, what string) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		horizon += sim.Day
		eng.RunUntil(horizon)
	})
	runtime.ReadMemStats(&after)
	// A day of the warm loop fires thousands of price-change and billing
	// events, and none of them may allocate: less than one allocation per
	// day-long window on average.
	if allocs >= 1 {
		t.Fatalf("%s allocated %.2f per simulated day, want < 1", what, allocs)
	}
	// AllocsPerRun runs the window once more to warm up.
	if perDay := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perDay > maxBytesPerDay {
		t.Fatalf("%s allocated %d bytes per simulated day, want <= %d", what, perDay, maxBytesPerDay)
	}
}

func TestSteadyStateRunLoopAllocs(t *testing.T) {
	eng := sim.NewEngine()
	checkWarmDays(t, eng, warmLoop(t, eng), "steady-state run loop")
}

// TestObsOffAllocs pins the telemetry layer's disabled-path contract:
// with no obs recorder on the engine, the billing hooks (the hottest obs
// call sites — they fire every simulated hour per instance) must add
// zero steady-state allocations. Every hook site guards on the nil
// recorder before building any argument, so this is the same bound as
// TestSteadyStateRunLoopAllocs.
func TestObsOffAllocs(t *testing.T) {
	eng := sim.NewEngine()
	eng.SetObs(nil) // explicit: telemetry off
	checkWarmDays(t, eng, warmLoop(t, eng), "obs-off steady state")
}
