package cloud

import (
	"math"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

var (
	mSmall = market.ID{Region: "us-east-1a", Type: "small"}
	mLarge = market.ID{Region: "eu-west-1a", Type: "large"}
)

// fixedParams returns deterministic parameters: constant startup latencies
// (CV=0) of 95 s on-demand and 240 s spot.
func fixedParams() Params {
	p := DefaultParams(1)
	p.StartupCV = 0
	p.OnDemandStartupMean = map[string]sim.Duration{DefaultStartupClass: 95}
	p.SpotStartupMean = map[string]sim.Duration{DefaultStartupClass: 240}
	return p
}

// testSet builds a two-market set with hand-written prices:
//
//	small: 0.01 until t=7200, then 0.50 until t=10800, then back to 0.01
//	large: flat 0.05
func testSet(t *testing.T) *market.Set {
	t.Helper()
	end := sim.Time(40 * sim.Hour)
	small, err := market.NewTrace(mSmall, []market.Point{
		{T: 0, Price: 0.01}, {T: 7200, Price: 0.50}, {T: 10800, Price: 0.01},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	large, err := market.NewTrace(mLarge, []market.Point{{T: 0, Price: 0.05}}, end)
	if err != nil {
		t.Fatal(err)
	}
	s, err := market.NewSet([]*market.Trace{small, large},
		map[market.ID]float64{mSmall: 0.06, mLarge: 0.24})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestProvider(t *testing.T) (*sim.Engine, *Provider) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewProvider(eng, testSet(t), fixedParams())
}

func TestOnDemandLifecycleAndBilling(t *testing.T) {
	eng, p := newTestProvider(t)
	var runningAt sim.Time
	var terminated bool
	in, err := p.RequestOnDemand(mSmall, Callbacks{
		OnRunning:    func(in *Instance) { runningAt = eng.Now() },
		OnTerminated: func(in *Instance, r TerminationReason) { terminated = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.State() != Pending {
		t.Fatalf("fresh instance: %v", in)
	}
	// Run until well into the third billing hour, then terminate.
	eng.RunUntil(95 + 2*sim.Hour + 30)
	if runningAt != 95 {
		t.Fatalf("runningAt = %v, want 95", runningAt)
	}
	if in.State() != Running {
		t.Fatalf("state = %v", in.State())
	}
	if err := p.Terminate(in); err != nil {
		t.Fatal(err)
	}
	if !terminated || in.State() != Terminated || in.Reason() != ReasonUser {
		t.Fatalf("termination not delivered: %v reason=%v", in, in.Reason())
	}
	// Three hours started at 0.06 each; user termination forgives nothing.
	if got := in.Charged(); math.Abs(got-0.18) > 1e-12 {
		t.Fatalf("charged = %v, want 0.18", got)
	}
	if got := p.Ledger().OnDemandTotal(); math.Abs(got-0.18) > 1e-12 {
		t.Fatalf("ledger on-demand = %v", got)
	}
	// No further charges accrue after termination.
	eng.RunUntil(20 * sim.Hour)
	if got := in.Charged(); math.Abs(got-0.18) > 1e-12 {
		t.Fatalf("charges continued after termination: %v", got)
	}
}

func TestSpotRequestValidation(t *testing.T) {
	_, p := newTestProvider(t)
	if _, err := p.RequestSpot(market.ID{Region: "nowhere", Type: "small"}, 0.06, Callbacks{}); err == nil {
		t.Error("unknown market accepted")
	}
	if _, err := p.RequestSpot(mSmall, 0, Callbacks{}); err == nil {
		t.Error("zero bid accepted")
	}
	if _, err := p.RequestSpot(mSmall, 0.06*4+0.01, Callbacks{}); err == nil {
		t.Error("bid above cap accepted")
	}
	if _, err := p.RequestOnDemand(market.ID{Region: "nowhere", Type: "x"}, Callbacks{}); err == nil {
		t.Error("unknown market accepted for on-demand")
	}
}

func TestSpotRejectedWhenPriceAboveBid(t *testing.T) {
	eng, p := newTestProvider(t)
	eng.RunUntil(8000) // price is 0.50 now
	if _, err := p.RequestSpot(mSmall, 0.06, Callbacks{}); err == nil {
		t.Fatal("request granted while price above bid")
	}
	// The spike (0.50) exceeds even the 4x bid cap (0.24), so no
	// permissible bid can be granted in this market right now.
	if _, err := p.RequestSpot(mSmall, 0.24, Callbacks{}); err == nil {
		t.Fatal("capped bid granted above-cap price")
	}
	// A bid above the current price in another market is granted.
	if _, err := p.RequestSpot(mLarge, 0.06, Callbacks{}); err != nil {
		t.Fatalf("valid bid rejected: %v", err)
	}
}

func TestSpotRevocationWithGraceAndRefund(t *testing.T) {
	eng, p := newTestProvider(t)
	var warnedAt, deadline, terminatedAt sim.Time
	var reason TerminationReason
	in, err := p.RequestSpot(mSmall, 0.06, Callbacks{
		OnRevocationWarning: func(in *Instance, dl sim.Time) { warnedAt, deadline = eng.Now(), dl },
		OnTerminated: func(in *Instance, r TerminationReason) {
			terminatedAt, reason = eng.Now(), r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(12 * sim.Hour)
	// Price crosses 0.06 at t=7200; warning there, termination 120 s later.
	if warnedAt != 7200 || deadline != 7320 {
		t.Fatalf("warning at %v deadline %v, want 7200/7320", warnedAt, deadline)
	}
	if terminatedAt != 7320 || reason != ReasonRevoked {
		t.Fatalf("terminated at %v reason %v", terminatedAt, reason)
	}
	// Booted at 240; hours charged at 240 (0.01) and 3840 (0.01); the hour
	// started at 7440 never happened. The hour in progress at revocation
	// (started 7440-3600=3840... the second hour spans 3840-7440) is
	// refunded: net charge = first hour only.
	if got := in.Charged(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("charged = %v, want 0.01 (second hour refunded)", got)
	}
	if p.Counters().Revocations != 1 {
		t.Fatalf("counters: %+v", p.Counters())
	}
}

func TestSpotBilledAtHourStartPrice(t *testing.T) {
	eng, p := newTestProvider(t)
	// Request close to the spike so an hour boundary lands inside it:
	// boot at 4000+240=4240, hour boundaries at 4240 (0.01), 7840 (price
	// 0.50? no — bid 4x keeps it alive; price at 7840 is 0.50).
	var in *Instance
	eng.Schedule(4000, func() {
		var err error
		in, err = p.RequestSpot(mSmall, 0.24, Callbacks{}) // 4x bid, survives 0.50? no: 0.50 > 0.24
		if err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(7199)
	if got := in.Charged(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("first hour charge = %v, want 0.01", got)
	}
	// At 7200 price jumps to 0.50 > bid 0.24: revocation, refund of the
	// in-progress hour, net 0.
	eng.RunUntil(9000)
	if got := in.Charged(); got != 0 {
		t.Fatalf("net charge after refund = %v, want 0", got)
	}
}

func TestSpotSurvivesSpikeUnderHighBid(t *testing.T) {
	// A milder spike (0.20) stays under the 4x bid cap (0.24): a
	// max-bidding proactive instance rides it out and pays the spike rate
	// for the hour that starts inside it.
	end := sim.Time(40 * sim.Hour)
	small, err := market.NewTrace(mSmall, []market.Point{
		{T: 0, Price: 0.01}, {T: 7200, Price: 0.20}, {T: 10800, Price: 0.01},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{small}, map[market.ID]float64{mSmall: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	p := NewProvider(eng, set, fixedParams())

	in, err := p.RequestSpot(mSmall, 0.24, Callbacks{}) // 4x on-demand
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(12 * sim.Hour)
	if in.State() != Running {
		t.Fatalf("high-bid instance lost: %v", in.State())
	}
	// Boot 240; hour boundaries every 3600 s from boot. By t=43200 twelve
	// hours have started (240 .. 39840); the one starting at 7440 lands
	// inside the spike and bills at 0.20, the rest at 0.01. Spot hours
	// bill at the hour-start price.
	want := 11*0.01 + 0.20
	if got := in.Charged(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("charged = %v, want %v", got, want)
	}
}

func TestPendingSpotCancelledOnPriceRise(t *testing.T) {
	eng, p := newTestProvider(t)
	var reason TerminationReason = -1
	var ran bool
	// Request at 7100; price jumps above bid at 7200, before the 240 s
	// allocation completes.
	eng.Schedule(7100, func() {
		_, err := p.RequestSpot(mSmall, 0.06, Callbacks{
			OnRunning:    func(*Instance) { ran = true },
			OnTerminated: func(_ *Instance, r TerminationReason) { reason = r },
		})
		if err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(12 * sim.Hour)
	if ran {
		t.Fatal("cancelled request still ran")
	}
	if reason != ReasonNeverGranted {
		t.Fatalf("reason = %v, want never-granted", reason)
	}
	if got := p.Ledger().Total(); got != 0 {
		t.Fatalf("never-granted request was billed: %v", got)
	}
	if p.Counters().NeverGranted != 1 {
		t.Fatalf("counters: %+v", p.Counters())
	}
}

func TestTerminateTwiceErrors(t *testing.T) {
	eng, p := newTestProvider(t)
	in, _ := p.RequestOnDemand(mSmall, Callbacks{})
	eng.RunUntil(200)
	if err := p.Terminate(in); err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(in); err == nil {
		t.Fatal("double terminate accepted")
	}
}

func TestTerminatePendingCancels(t *testing.T) {
	eng, p := newTestProvider(t)
	ran := false
	in, _ := p.RequestOnDemand(mSmall, Callbacks{OnRunning: func(*Instance) { ran = true }})
	eng.RunUntil(10)
	if err := p.Terminate(in); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(500)
	if ran {
		t.Fatal("cancelled pending instance ran")
	}
	if p.Ledger().Total() != 0 {
		t.Fatal("cancelled pending instance billed")
	}
}

func TestSubscribePrice(t *testing.T) {
	eng, p := newTestProvider(t)
	var times []sim.Time
	var prices []float64
	p.SubscribePrice(mSmall, func(at sim.Time, price float64) {
		times = append(times, at)
		prices = append(prices, price)
	})
	eng.RunUntil(12 * sim.Hour)
	if len(times) != 2 || times[0] != 7200 || times[1] != 10800 {
		t.Fatalf("price events at %v", times)
	}
	if prices[0] != 0.50 || prices[1] != 0.01 {
		t.Fatalf("prices %v", prices)
	}
}

func TestSpotPriceAndMaxBid(t *testing.T) {
	eng, p := newTestProvider(t)
	if got := p.SpotPrice(mSmall); got != 0.01 {
		t.Fatalf("SpotPrice = %v", got)
	}
	eng.RunUntil(8000)
	if got := p.SpotPrice(mSmall); got != 0.50 {
		t.Fatalf("SpotPrice after spike = %v", got)
	}
	if got := p.OnDemandPrice(mSmall); got != 0.06 {
		t.Fatalf("OnDemandPrice = %v", got)
	}
	if got := p.MaxBid(mSmall); math.Abs(got-0.24) > 1e-12 {
		t.Fatalf("MaxBid = %v", got)
	}
}

func TestStartupClass(t *testing.T) {
	cases := map[market.Region]string{
		"us-east-1a": "us-east-1",
		"us-east-1b": "us-east-1",
		"eu-west-1a": "eu-west-1",
		"us-east-1":  "us-east-1",
		"local":      "local",
	}
	for in, want := range cases {
		if got := StartupClass(in); got != want {
			t.Errorf("StartupClass(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestLedgerConsistency(t *testing.T) {
	eng, p := newTestProvider(t)
	// A few instances across both markets with mixed outcomes.
	_, _ = p.RequestSpot(mSmall, 0.06, Callbacks{})
	_, _ = p.RequestSpot(mSmall, 0.24, Callbacks{})
	odIn, _ := p.RequestOnDemand(mLarge, Callbacks{})
	eng.Schedule(5*sim.Hour, func() { _ = p.Terminate(odIn) })
	eng.RunUntil(20 * sim.Hour)

	sum := 0.0
	for _, e := range p.Ledger().Entries() {
		sum += e.Amount
	}
	if math.Abs(sum-p.Ledger().Total()) > 1e-9 {
		t.Fatalf("ledger total %v != entry sum %v", p.Ledger().Total(), sum)
	}
	if math.Abs(p.Ledger().SpotTotal()+p.Ledger().OnDemandTotal()-p.Ledger().Total()) > 1e-9 {
		t.Fatal("spot+on-demand != total")
	}
	if p.Ledger().Total() <= 0 {
		t.Fatalf("expected positive spend, got %v", p.Ledger().Total())
	}
}

// TestGeneratedUniverseRevocations runs the provider against a synthetic
// universe and checks the end-to-end invariant: every on-demand instance
// survives, and spot instances at low bids eventually get revoked.
func TestGeneratedUniverseRevocations(t *testing.T) {
	cfg := market.DefaultConfig(31)
	cfg.Horizon = 10 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	p := NewProvider(eng, set, DefaultParams(31))

	id := market.ID{Region: "us-east-1b", Type: "small"}
	od := p.OnDemandPrice(id)
	relaunch := func() {}
	relaunch = func() {
		_, err := p.RequestSpot(id, od, Callbacks{
			OnTerminated: func(_ *Instance, r TerminationReason) {
				// Keep a spot presence: re-request when the price drops.
				eng.After(10*sim.Minute, func() {
					if p.SpotPrice(id) <= od {
						relaunch()
					} else {
						eng.After(30*sim.Minute, relaunch)
					}
				})
			},
		})
		if err != nil {
			// Price above bid right now; retry later.
			eng.After(30*sim.Minute, relaunch)
		}
	}
	relaunch()
	odInst, err := p.RequestOnDemand(id, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Day)

	if odInst.State() != Running {
		t.Fatalf("on-demand instance died: %v", odInst.State())
	}
	c := Counters(p.Counters())
	if c.Revocations == 0 && c.NeverGranted == 0 {
		t.Error("bid-at-on-demand spot instance was never revoked in 10 volatile days")
	}
	if p.Ledger().Total() <= 0 {
		t.Error("no spend recorded")
	}
}

// TestSnapshotRefusesTransients pins Snapshot's two refusal paths, which
// forking relies on: an allocation in flight (Pending) and a revocation
// inside its grace window (Revoking) hold one-shot event closures a
// snapshot cannot carry, so the provider must report ok=false until both
// have settled.
func TestSnapshotRefusesTransients(t *testing.T) {
	eng, p := newTestProvider(t)
	in, err := p.RequestSpot(mSmall, 0.06, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Snapshot(); ok || in.State() != Pending {
		t.Fatalf("snapshot taken while %v allocates", in)
	}
	eng.RunUntil(1000) // booted at 240
	if _, ok := p.Snapshot(); !ok || in.State() != Running {
		t.Fatalf("snapshot refused with %v running", in)
	}
	eng.RunUntil(7200 + 60) // warned at 7200, terminated at 7320
	if _, ok := p.Snapshot(); ok || in.State() != Revoking {
		t.Fatalf("snapshot taken while %v is in its grace window", in)
	}
	eng.RunUntil(8000)
	if _, ok := p.Snapshot(); !ok || in.State() != Terminated {
		t.Fatalf("snapshot refused after %v settled", in)
	}
}
