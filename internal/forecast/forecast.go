// Package forecast provides the online spot-price statistics used by
// stability-aware bidding — the extension the paper names as future work
// ("bidding strategies that take spot price stability into account"):
// decaying moments over piecewise-constant price signals, the per-market
// volatility fold the scheduler and the fleet read, a trailing-window
// standard deviation, and the mean-plus-volatility market score.
package forecast

import (
	"math"
	"sort"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// Halflife is the decay half-life of the price volatility that
// stability-aware bidding reads.
const Halflife = 12 * sim.Hour

// DecayingMoments tracks the exponentially-decayed mean and variance of a
// piecewise-constant signal (such as a spot price) in O(1) per change.
// Each observation states that the signal held value v since the previous
// observation; history is discounted with the configured half-life, so
// recent behaviour dominates. The zero value is not usable; construct with
// NewDecayingMoments.
type DecayingMoments struct {
	tau    float64 // decay time constant (halflife / ln 2)
	primed bool
	lastT  sim.Time
	lastV  float64
	w      float64 // total decayed weight
	m1     float64 // decayed sum of v
	m2     float64 // decayed sum of v^2
}

// NewDecayingMoments returns a tracker whose memory halves every halflife
// seconds. Panics on a non-positive half-life (always a configuration
// bug).
func NewDecayingMoments(halflife sim.Duration) *DecayingMoments {
	if halflife <= 0 {
		panic("forecast: non-positive halflife")
	}
	return &DecayingMoments{tau: float64(halflife) / math.Ln2}
}

// Observe records that the signal changed to value v at time t (the
// previous value held during [lastT, t)). Out-of-order observations are
// ignored.
func (dm *DecayingMoments) Observe(t sim.Time, v float64) {
	if !dm.primed {
		dm.primed = true
		dm.lastT, dm.lastV = t, v
		return
	}
	if t < dm.lastT {
		return
	}
	d := t - dm.lastT
	if d > 0 {
		decay := math.Exp(-d / dm.tau)
		segW := dm.tau * (1 - decay)
		dm.w = dm.w*decay + segW
		dm.m1 = dm.m1*decay + segW*dm.lastV
		dm.m2 = dm.m2*decay + segW*dm.lastV*dm.lastV
	}
	dm.lastT, dm.lastV = t, v
}

// advance returns the moments as of time t (crediting the current value
// for [lastT, t)) without mutating the tracker.
func (dm *DecayingMoments) advance(t sim.Time) (w, m1, m2 float64) {
	w, m1, m2 = dm.w, dm.m1, dm.m2
	if !dm.primed || t <= dm.lastT {
		return
	}
	d := t - dm.lastT
	decay := math.Exp(-d / dm.tau)
	segW := dm.tau * (1 - decay)
	w = w*decay + segW
	m1 = m1*decay + segW*dm.lastV
	m2 = m2*decay + segW*dm.lastV*dm.lastV
	return
}

// Mean returns the decayed mean as of time t. Before any observation it
// returns 0.
func (dm *DecayingMoments) Mean(t sim.Time) float64 {
	w, m1, _ := dm.advance(t)
	if w == 0 {
		if dm.primed {
			return dm.lastV
		}
		return 0
	}
	return m1 / w
}

// Std returns the decayed standard deviation as of time t.
func (dm *DecayingMoments) Std(t sim.Time) float64 {
	w, m1, m2 := dm.advance(t)
	if w == 0 {
		return 0
	}
	mean := m1 / w
	v := m2/w - mean*mean
	if v < 0 {
		v = 0 // numerical floor
	}
	return math.Sqrt(v)
}

// Volatility is one market's decayed price standard deviation (half-life
// Halflife), folded over the trace's changes when a decision reads it
// rather than observed change by change. A copy is an independent fold:
// the columns it shares are immutable.
type Volatility struct {
	dm     DecayingMoments
	times  []sim.Time
	prices []float64
	next   int // first change not yet folded
}

// NewVolatility starts a fold of tr's price at now.
func NewVolatility(tr *market.Trace, now sim.Time) Volatility {
	v := Volatility{dm: *NewDecayingMoments(Halflife), times: tr.Times(), prices: tr.Prices()}
	v.next = sort.Search(len(v.times), func(i int) bool { return v.times[i] > now })
	v.dm.Observe(now, tr.PriceAt(now))
	return v
}

// Std returns the decayed price standard deviation as of now, first
// folding in the changes since the last call; now must not go backwards.
// The result is bit-identical to a DecayingMoments that observed every
// change as it fired: the fold order is the trace's, and a change at
// exactly now leaves Std(now) unchanged whether or not it was folded,
// since Observe(now) and Std's own advance compute the same moments.
func (v *Volatility) Std(now sim.Time) float64 {
	for ; v.next < len(v.times) && v.times[v.next] <= now; v.next++ {
		v.dm.Observe(v.times[v.next], v.prices[v.next])
	}
	return v.dm.Std(now)
}

// TrailingStd returns the sampled standard deviation of a trace over the
// window (t-window, t], using the given sampling step. It looks only at
// the past, so it is a legitimate online statistic.
func TrailingStd(tr *market.Trace, t sim.Time, window, step sim.Duration) float64 {
	if step <= 0 || window <= 0 {
		return 0
	}
	start := t - window
	if start < tr.Start() {
		start = tr.Start()
	}
	// The grid is walked in time order, so one cursor makes every lookup
	// O(1) amortized instead of a binary search per sample.
	cur := market.NewCursor(tr)
	var n int
	var mean, m2 float64
	for s := start; s <= t; s += step {
		x := cur.PriceAt(s)
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
	}
	if n < 2 {
		return 0
	}
	return math.Sqrt(m2 / float64(n-1))
}

// Score ranks a market for stability-aware bidding: expected hourly cost
// plus lambda times its volatility. Lower is better. With lambda = 0 this
// degenerates to the paper's greedy cheapest-market rule.
func Score(mean, std, lambda float64) float64 {
	return mean + lambda*std
}
