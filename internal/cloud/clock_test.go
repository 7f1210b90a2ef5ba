package cloud

import (
	"fmt"
	"slices"
	"testing"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
)

// priceEvent is one delivered price change.
type priceEvent struct {
	t  sim.Time
	id market.ID
}

// chainOracle replays the mechanism the price clock replaced: one event
// chain per market on a plain engine, every market armed at origin in set
// order and each change posting the market's next one. It returns every
// change after origin up to horizon, in firing order.
func chainOracle(set *market.Set, origin, horizon sim.Time) []priceEvent {
	eng := sim.NewEngineAt(origin)
	var out []priceEvent
	for _, id := range set.IDs() {
		tr := set.Trace(id)
		var arm func(after sim.Time)
		arm = func(after sim.Time) {
			if at, _, ok := tr.NextChangeAfter(after); ok {
				eng.Post(at, func() {
					out = append(out, priceEvent{at, id})
					arm(at)
				})
			}
		}
		arm(origin)
	}
	eng.RunUntil(horizon)
	return out
}

// listener is a price subscription or a spot instance the clock test
// opens at a random time; it observes its market from at until end.
type listener struct {
	id      market.ID
	at, end sim.Time
	bid     float64 // > 0 for a spot instance
	inst    InstanceID
}

// TestPriceClockMatchesChains pins the clock's tie order: over several
// generated universes, with subscribers and spot instances coming and
// going at random times, the provider must deliver exactly the changes a
// per-market event chain would, in the same order, restricted to the
// spans where someone listens. Shared shocks move several markets at one
// instant, and the test requires at least one such tie to be observed.
func TestPriceClockMatchesChains(t *testing.T) {
	ties := 0
	for _, seed := range []int64{3, 17, 912282} {
		for _, origin := range []sim.Time{0, 4*sim.Day + 1234.5} {
			t.Run(fmt.Sprintf("seed=%d/origin=%v", seed, origin), func(t *testing.T) {
				ties += checkPriceClock(t, seed, origin)
			})
		}
	}
	if ties == 0 {
		t.Fatal("no simultaneous price changes reached listeners; the tie order went untested")
	}
}

// checkPriceClock runs one universe from origin and returns the number of
// observed changes that shared their time with the previous one.
func checkPriceClock(t *testing.T, seed int64, origin sim.Time) int {
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = 12 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := mcfg.Horizon
	eng := sim.NewEngineAt(origin)
	p := NewProvider(eng, set, DefaultParams(seed))
	rng := randx.Derive(seed, "cloud/clock-test")
	ids := set.IDs()

	var got []string
	logf := func(format string, a ...any) { got = append(got, fmt.Sprintf(format, a...)) }
	var ls []*listener
	open := func(spot bool) {
		l := &listener{id: ids[int(rng.Uniform(0, float64(len(ids))))], end: horizon}
		eng.Schedule(rng.Uniform(origin, horizon), func() {
			l.at = eng.Now()
			if !spot {
				k := len(ls)
				p.SubscribePrice(l.id, func(at sim.Time, price float64) {
					logf("%v %s sub%d %v", at, l.id, k, price)
				})
				ls = append(ls, l)
				return
			}
			bid := p.MaxBid(l.id) * rng.Uniform(0.1, 1)
			in, err := p.RequestSpot(l.id, bid, Callbacks{
				OnRevocationWarning: func(in *Instance, _ sim.Time) {
					logf("%v %s cross%d", eng.Now(), l.id, in.ID())
				},
				OnTerminated: func(in *Instance, r TerminationReason) {
					if r == ReasonNeverGranted {
						logf("%v %s cross%d", eng.Now(), l.id, in.ID())
					}
				},
			})
			if err != nil {
				return // price already above the bid
			}
			l.bid, l.inst = bid, in.ID()
			ls = append(ls, l)
			// Spot listeners leave again, so markets fall idle and re-arm.
			eng.Schedule(eng.Now()+rng.Uniform(0, 2*sim.Day), func() {
				if in.Alive() {
					l.end = eng.Now()
					if err := p.Terminate(in); err != nil {
						t.Error(err)
					}
				}
			})
		})
	}
	for i := 0; i < 6; i++ {
		open(false)
	}
	for i := 0; i < 60; i++ {
		open(true)
	}
	eng.RunUntil(horizon)

	// Replay the chains and derive what the listeners must have seen: at
	// each change, the market's live spot instances whose bid it crosses
	// (first crossing only, ascending ID), then its subscribers.
	var want []string
	crossed := map[InstanceID]bool{}
	ties := 0
	var last priceEvent
	for _, ev := range chainOracle(set, origin, horizon) {
		price := set.Trace(ev.id).PriceAt(ev.t)
		heard := false
		var subs, spots []*listener
		for _, l := range ls {
			if l.id == ev.id && l.at < ev.t && ev.t <= l.end {
				if l.bid > 0 {
					spots = append(spots, l)
				} else {
					subs = append(subs, l)
				}
			}
		}
		slices.SortFunc(spots, func(a, b *listener) int { return int(a.inst) - int(b.inst) })
		for _, l := range spots {
			if !crossed[l.inst] && price > l.bid {
				crossed[l.inst] = true
				want = append(want, fmt.Sprintf("%v %s cross%d", ev.t, ev.id, l.inst))
				heard = true
			}
		}
		for _, l := range subs {
			want = append(want, fmt.Sprintf("%v %s sub%d %v", ev.t, ev.id, slices.Index(ls, l), price))
			heard = true
		}
		if heard {
			if ev.t == last.t && ev.id != last.id {
				ties++
			}
			last = ev
		}
	}
	if len(want) == 0 {
		t.Fatal("no listener heard a price change")
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d observations, chains predict %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observation %d: got %q, chains predict %q", i, got[i], want[i])
		}
	}
	return ties
}
