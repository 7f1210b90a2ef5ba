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

// checkWarmDays runs the warm loop on a fresh engine from newEngine one
// simulated day at a time and fails unless it averages under one
// allocation and maxBytesPerDay per day. Both figures are read from
// process-wide counters, so they also count what the Go runtime
// allocates for itself in the window: on a loaded machine it may start
// an OS thread, whose M, g0 and gsignal structs and profiling stacks
// come to 5,248 bytes in 5 allocations, or 875 bytes per measured day.
// The simulation is deterministic, so a leak of its own repeats byte for
// byte on a second engine, while the runtime's thread start does not: a
// window over either bound is measured once more from scratch, and only
// a repeat fails.
func checkWarmDays(t *testing.T, what string, newEngine func() *sim.Engine) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		eng := newEngine()
		allocs, perDay := measureWarmDays(eng, warmLoop(t, eng))
		// A day of the warm loop fires thousands of price-change and
		// billing events, and none of them may allocate: less than one
		// allocation per day-long window on average.
		if allocs < 1 && perDay <= maxBytesPerDay {
			return
		}
		if attempt == 2 {
			t.Fatalf("%s allocated %.2f times and %d bytes per simulated day on two fresh engines, want < 1 and <= %d",
				what, allocs, perDay, maxBytesPerDay)
		}
		t.Logf("%s allocated %.2f times and %d bytes per simulated day; measuring again on a fresh engine",
			what, allocs, perDay)
	}
}

// measureWarmDays returns the allocations and bytes per simulated day of
// the warm loop over the days after horizon.
func measureWarmDays(eng *sim.Engine, horizon sim.Time) (allocs float64, perDay uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	allocs = testing.AllocsPerRun(runs, func() {
		horizon += sim.Day
		eng.RunUntil(horizon)
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs the window once more to warm up.
	return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
}

func TestSteadyStateRunLoopAllocs(t *testing.T) {
	checkWarmDays(t, "steady-state run loop", sim.NewEngine)
}

// TestObsOffAllocs pins the telemetry layer's disabled-path contract:
// with no obs recorder on the engine, the billing hooks (the hottest obs
// call sites — they fire every simulated hour per instance) must add
// zero steady-state allocations. Every hook site guards on the nil
// recorder before building any argument, so this is the same bound as
// TestSteadyStateRunLoopAllocs.
func TestObsOffAllocs(t *testing.T) {
	checkWarmDays(t, "obs-off steady state", func() *sim.Engine {
		eng := sim.NewEngine()
		eng.SetObs(nil) // explicit: telemetry off
		return eng
	})
}
