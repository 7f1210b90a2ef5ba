package fleet

import (
	"math"
	"math/bits"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// floorWindow is the span one folded price floor holds for. An hour
// spans twelve default ticks, so each fold is reused a dozen times, while
// a generated market changes price only about six times in it, so the
// floor stays close to the prices the ticks actually see.
const floorWindow = sim.Hour

// hourFloor bounds rebalance's candidate scans from below. For each
// instance size it holds the lowest per-unit spot price that any
// configured market of that size shows at any instant of the current
// window: the price in effect at the window's start and every change
// inside it, times the size's InvUnits. The floor is folded lazily, once
// per window and size, from the traces' immutable columns, with a
// forward index per market so each window starts where the last one
// left off.
//
// Every pick pickEff(u) can return is a bid-feasible u-unit market at
// its current per-unit price. That price is one of those the floor
// folded, and multiplying by the same InvUnits keeps the order, so no
// pick undercuts the floor. A replica whose move needs a price below
// the floor therefore cannot move, and rebalance skips its scan with
// the same outcome. This relies on Strategy.Pick returning one of its
// candidates, as the interface requires.
type hourFloor struct {
	// Per market, indexed like Controller.markets.
	traces []*market.Trace
	units  []int
	inv    []float64
	pos    []int // the last step before the end of the last folded window

	start, end sim.Time // the window, [start, end); empty until the first call
	// Per size, indexed by log2 of the unit count. Prices are positive,
	// so 0 marks a size not yet folded for the window.
	floor []float64
}

// newHourFloor builds the floor state over markets with the given traces,
// unit counts and their exact reciprocals. It allocates everything the
// floor ever uses.
func newHourFloor(traces []*market.Trace, units []int, inv []float64) hourFloor {
	sizes := 0
	for _, u := range units {
		sizes = max(sizes, bits.TrailingZeros(uint(u))+1)
	}
	return hourFloor{
		traces: traces,
		units:  units,
		inv:    inv,
		pos:    make([]int, len(traces)),
		floor:  make([]float64, sizes),
	}
}

// at returns the floor for u-unit markets in the window holding now.
func (f *hourFloor) at(now sim.Time, u int) float64 {
	if now < f.start || now >= f.end {
		f.start = math.Floor(now/floorWindow) * floorWindow
		if f.start > now {
			// now/floorWindow rounded up onto a window boundary.
			f.start -= floorWindow
		}
		f.end = f.start + floorWindow
		clear(f.floor)
	}
	k := bits.TrailingZeros(uint(u))
	if f.floor[k] == 0 {
		f.floor[k] = f.fold(u)
	}
	return f.floor[k]
}

// fold computes the current window's floor for u-unit markets; +Inf when
// there are none.
func (f *hourFloor) fold(u int) float64 {
	lo := math.Inf(1)
	for i, tr := range f.traces {
		if f.units[i] != u {
			continue
		}
		ts, ps := tr.Times(), tr.Prices()
		j := f.pos[i]
		if ts[j] > f.start {
			j = 0 // an earlier window than the last: seek from the first step
		}
		for j+1 < len(ts) && ts[j+1] <= f.start {
			j++
		}
		p := ps[j]
		for j+1 < len(ts) && ts[j+1] < f.end {
			j++
			p = min(p, ps[j])
		}
		f.pos[i] = j // the next window starts at or after ts[j]
		lo = min(lo, p*f.inv[i])
	}
	return lo
}
