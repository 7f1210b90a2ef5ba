package market

import (
	"sort"

	"spothost/internal/sim"
)

// cursorGallopLimit bounds the linear advance of a cursor seek: after this
// many steps the remaining distance is covered by one binary search, so a
// single far-forward query costs O(log n) instead of O(n) while the common
// one-segment advance stays O(1).
const cursorGallopLimit = 32

// Cursor is a stateful iterator over one trace, optimized for the
// forward-moving clocks of a simulation. Queries at non-decreasing times
// cost O(1) amortized (each trace segment is crossed at most once);
// occasional backward queries re-seek with a binary search and remain
// correct. A Cursor returns exactly the same values as Trace.PriceAt and
// Trace.NextChangeAfter at every time.
//
// A Cursor is NOT safe for concurrent use; each goroutine (each simulation
// run) must own its own cursors. The underlying Trace stays shared and
// immutable.
type Cursor struct {
	tr *Trace
	i  int // index of the last point with T <= the last queried time (clamped to 0)
}

// NewCursor returns a cursor positioned at the start of the trace.
func NewCursor(tr *Trace) *Cursor { return &Cursor{tr: tr} }

// seek moves the cursor so that c.i is the index of the last step with
// time <= t, clamped to 0 for times before the first step. Seeks scan the
// times column only — 8 bytes per crossed step.
func (c *Cursor) seek(t sim.Time) {
	ts := c.tr.times
	i := c.i
	if ts[i] > t {
		// Backward query (or a query before the first point): binary
		// search from scratch.
		i = sort.Search(len(ts), func(j int) bool { return ts[j] > t }) - 1
		if i < 0 {
			i = 0
		}
		c.i = i
		return
	}
	steps := 0
	for i+1 < len(ts) && ts[i+1] <= t {
		i++
		steps++
		if steps == cursorGallopLimit {
			// Far forward jump: finish with a binary search over the tail.
			rest := ts[i+1:]
			i += sort.Search(len(rest), func(j int) bool { return rest[j] > t })
			break
		}
	}
	c.i = i
}

// PriceAt returns the price in effect at time t, identical to
// Trace.PriceAt.
func (c *Cursor) PriceAt(t sim.Time) float64 {
	c.seek(t)
	return c.tr.prices[c.i]
}

// NextChangeAfter returns the time and price of the first step strictly
// after t, identical to Trace.NextChangeAfter.
func (c *Cursor) NextChangeAfter(t sim.Time) (at sim.Time, price float64, ok bool) {
	c.seek(t)
	tr := c.tr
	if tr.times[c.i] > t {
		// t is before the first point; the first point is the next change.
		return tr.times[c.i], tr.prices[c.i], true
	}
	if c.i+1 >= len(tr.times) {
		return 0, 0, false
	}
	return tr.times[c.i+1], tr.prices[c.i+1], true
}
