package sweep

import (
	"math"

	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

// Warm-start certification and divergence points.
//
// A family's members differ only in the warm-axis knob. The per-knob
// oracles below scan the price columns and report, for each adjacent pair
// of knob values, the *first divergence time*: the earliest instant at
// which the two values could produce a different decision. From that one
// number both reuse modes fall out:
//
//   - whole-horizon sharing: divergence >= horizon means no trajectory can
//     ever separate, so one pilot simulation runs cold and its report is
//     reused byte for byte (classesFromTimes);
//   - mid-horizon forking: divergence at T < horizon means the runs are
//     provably identical on [0, T), so a sibling resumes the pilot's last
//     quiescent checkpoint at or before T (sched.Checkpoint — model-state
//     copy plus re-arm; the event heap itself is never copied) and
//     simulates only the tail, still byte-identical to a cold run.
//
// The oracles are sound (they never report a divergence time later than
// the true first divergence) but conservative (they may report an earlier
// one):
//
//   - bid: the scheduler and provider consume the bid exclusively in
//     price-vs-bid comparisons (grant checks, revocations, grantability
//     scans); billing always charges the spot price, never the bid. Two
//     effective bids e1 < e2 in market m behave identically until the
//     first price step of m that lands in (e1, e2].
//   - hysteresis: consumed only in decide()'s improvement test
//     c < curCost*(1-h). Both sides are always drawn from the same small
//     curve set — n_m x spot price or n_m x on-demand price over the
//     candidate markets — so h1 and h2 can only disagree from the start of
//     the first merged segment on which some curve pair flips the
//     comparison. The oracle replays the engine's own float expression, so
//     the time is exact to the bit.
//   - tau: for live-migration mechanisms the checkpoint bound is invisible
//     to the trajectory until a forced warning whose grace window
//     separates the two values (see the runner's dynamic divergence scan
//     over the pilot's ForkLog); it has no static oracle here.
//   - lambda: consumed continuously (volatility scoring), so distinct
//     values are never certified equal and never forked.
//
// Certification depends on the universe, so classes are recomputed per
// seed; it reads only the columnar trace slabs and costs O(values x steps)
// per family.

// never is the divergence time of a pair that can never separate.
var never = sim.Time(math.Inf(1))

// adjacentDivergeTimes returns, for each adjacent pair of family members
// (sorted by ascending warm value), the first time the pair's knob values
// could diverge on this universe, or +Inf. ok is false when the warm knob
// has no static oracle (tau, lambda): the caller must treat every pair as
// divergent at time 0 or consult the pilot's runtime ForkLog.
func adjacentDivergeTimes(plan *Plan, members []int, set *market.Set, bidCap float64, horizon sim.Time) ([]sim.Time, bool) {
	if plan.WarmAxis < 0 || len(members) < 2 {
		return nil, false
	}
	knob := plan.Axes[plan.WarmAxis].Knob
	cfg := plan.Points[members[0]].Config

	var pairTime func(lo, hi float64) sim.Time
	switch {
	case knob == KnobBid && cfg.Bidding == sched.Proactive:
		pairTime = func(lo, hi float64) sim.Time {
			return bidPairDivergeTime(set, cfg.Markets, lo, hi, bidCap, horizon)
		}
	case knob == KnobBid:
		// Reactive / PureSpot / OnDemandOnly never read BidMultiple.
		pairTime = func(lo, hi float64) sim.Time { return never }
	case knob == KnobHysteresis:
		curves := costCurves(set, cfg)
		pairTime = func(lo, hi float64) sim.Time {
			return hystPairDivergeTime(curves, lo, hi, horizon)
		}
	default:
		return nil, false
	}

	out := make([]sim.Time, len(members)-1)
	for i := 1; i < len(members); i++ {
		lo := plan.Points[members[i-1]].Values[plan.WarmAxis]
		hi := plan.Points[members[i]].Values[plan.WarmAxis]
		if lo == hi {
			out[i-1] = never
		} else {
			out[i-1] = pairTime(lo, hi)
		}
	}
	return out, true
}

// classesFromTimes splits members into contiguous runs at every adjacent
// pair whose divergence time falls inside the horizon.
func classesFromTimes(members []int, times []sim.Time, horizon sim.Time) [][]int {
	classes := [][]int{{members[0]}}
	for i := 1; i < len(members); i++ {
		if times[i-1] < horizon {
			classes = append(classes, nil)
		}
		last := len(classes) - 1
		classes[last] = append(classes[last], members[i])
	}
	return classes
}

func singletons(members []int) [][]int {
	out := make([][]int, len(members))
	for i, m := range members {
		out[i] = []int{m}
	}
	return out
}

// bidPairDivergeTime returns the first time bid multiples lo < hi can
// behave differently in any candidate market: the earliest price step
// within the horizon that lands strictly above lo's effective bid and
// at-or-below hi's. Effective bids mirror bidFor: min(k x od, cap x od).
// The initial price (step 0) is in effect from time 0.
func bidPairDivergeTime(set *market.Set, markets []market.ID, lo, hi, bidCap float64, horizon sim.Time) sim.Time {
	first := never
	for _, m := range markets {
		od := set.OnDemand(m)
		elo, ehi := lo*od, hi*od
		if cap := bidCap * od; elo > cap {
			elo = cap
		}
		if cap := bidCap * od; ehi > cap {
			ehi = cap
		}
		if elo >= ehi {
			continue // both capped (or equal): indistinguishable here
		}
		tr := set.Trace(m)
		if tr == nil {
			return 0 // unknown market: never certify
		}
		times, prices := tr.Times(), tr.Prices()
		for i, p := range prices {
			at := sim.Time(0)
			if i > 0 {
				at = times[i]
			}
			if at >= horizon || at >= first {
				break
			}
			// The provider compares price > bid (grants, revocations), so
			// the pair separates exactly when p is in (elo, ehi].
			if p > elo && p <= ehi {
				first = at
				break
			}
		}
	}
	return first
}

// costCurve is one hourly-cost curve the decide() comparison can draw a
// side from: scale x a piecewise-constant price series. A constant curve
// (on-demand) has nil times and a single price.
type costCurve struct {
	times  []sim.Time
	prices []float64
	scale  float64
}

// costCurves enumerates every curve decide() can ever compare: for each
// candidate market (plus home), the spot curve and the on-demand constant,
// both scaled by the server count the service needs in that type.
func costCurves(set *market.Set, cfg sched.Config) []costCurve {
	ids := make([]market.ID, 0, len(cfg.Markets)+1)
	seen := map[market.ID]bool{}
	for _, m := range append(append([]market.ID(nil), cfg.Markets...), cfg.Home) {
		if !seen[m] {
			seen[m] = true
			ids = append(ids, m)
		}
	}
	curves := make([]costCurve, 0, 2*len(ids))
	for _, m := range ids {
		n := float64(serversFor(cfg, m.Type))
		if tr := set.Trace(m); tr != nil {
			curves = append(curves, costCurve{times: tr.Times(), prices: tr.Prices(), scale: n})
		}
		curves = append(curves, costCurve{prices: []float64{set.OnDemand(m)}, scale: n})
	}
	return curves
}

// serversFor mirrors sched.Config.serversFor: how many servers of type t
// the service needs.
func serversFor(cfg sched.Config, t market.InstanceType) int {
	types := cfg.Types
	if types == nil {
		types = market.DefaultTypes()
	}
	ts, ok := market.FindType(types, t)
	if !ok || cfg.Service.VM.Units <= 0 {
		return 1
	}
	per := ts.Units / cfg.Service.VM.Units
	if per < 1 {
		per = 1
	}
	return (cfg.Service.Count + per - 1) / per
}

// hystPairDivergeTime returns the first time hysteresis values h1 < h2 can
// decide differently: the earliest merged-segment start, over all ordered
// pairs of cost curves (candidate c, current b), at which the engine's own
// test c < b*(1-h) flips between h1 and h2. A flip threatens any decision
// from the segment's start onward, so the start is a sound lower bound on
// the true first divergent decision.
func hystPairDivergeTime(curves []costCurve, h1, h2 float64, horizon sim.Time) sim.Time {
	first := never
	for i := range curves {
		for j := range curves {
			if i == j {
				continue
			}
			if t := curvePairFlipTime(&curves[i], &curves[j], h1, h2, horizon); t < first {
				first = t
			}
		}
	}
	return first
}

// curvePairFlipTime walks the merged piecewise-constant segments of
// candidate a and current b over [0, horizon) and returns the start of the
// first piece on which decide()'s comparison differs between the two
// hysteresis values (+Inf if none).
func curvePairFlipTime(a, b *costCurve, h1, h2 float64, horizon sim.Time) sim.Time {
	ia, ib := 0, 0
	t := sim.Time(0)
	for t < horizon {
		for ia+1 < len(a.times) && a.times[ia+1] <= t {
			ia++
		}
		for ib+1 < len(b.times) && b.times[ib+1] <= t {
			ib++
		}
		cv := a.scale * a.prices[ia]
		bv := b.scale * b.prices[ib]
		if bv <= 0 {
			return t // degenerate current cost: never certify
		}
		if (cv < bv*(1-h1)) != (cv < bv*(1-h2)) {
			return t
		}
		// Advance to the next boundary of either curve.
		nt := horizon
		if ia+1 < len(a.times) && a.times[ia+1] < nt {
			nt = a.times[ia+1]
		}
		if ib+1 < len(b.times) && b.times[ib+1] < nt {
			nt = b.times[ib+1]
		}
		if nt <= t {
			break // both curves exhausted
		}
		t = nt
	}
	return never
}
