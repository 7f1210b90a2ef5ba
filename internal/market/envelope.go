package market

import (
	"sort"

	"spothost/internal/sim"
)

// envSeg is one piece of a lower envelope: from t until the next segment's
// t, candidate arg is the (weighted) cheapest market.
type envSeg struct {
	t        sim.Time
	arg      int     // index into Envelope.ids
	price    float64 // winner's raw spot price
	weighted float64 // weights[arg] * price
}

// Envelope is the precomputed lower envelope of a candidate market subset:
// for every instant it records which candidate has the lowest weighted spot
// price and what that price is. It replaces the per-decision "scan all M
// traces" loop in the scheduler and fleet strategies with an O(1) amortized
// cursor lookup.
//
// The winner at each instant is the FIRST candidate (in ids order) whose
// weighted price is strictly minimal — exactly the pick of a linear scan
// over ids using strict-< comparison, so adopting the envelope cannot
// change results.
//
// An Envelope is immutable after construction and safe to share across
// goroutines; EnvelopeCursor holds the per-run mutable position.
type Envelope struct {
	ids     []ID
	weights []float64
	segs    []envSeg
	end     sim.Time
}

// buildEnvelope sweeps the merged segment boundaries of the candidate
// traces and records the weighted argmin on each piece. Cost is
// O(T log T + T*M) for T total points across M candidates, paid once per
// (set, candidates, weights) and memoized on the Set.
func buildEnvelope(s *Set, ids []ID, weights []float64) *Envelope {
	traces := make([]*Trace, len(ids))
	total := 0
	end := sim.Time(0)
	for i, id := range ids {
		tr := s.Trace(id)
		if tr == nil {
			return nil
		}
		traces[i] = tr
		total += tr.Len()
		if i == 0 || tr.End() < end {
			end = tr.End()
		}
	}
	w := weights
	if w == nil {
		w = make([]float64, len(ids))
		for i := range w {
			w[i] = 1
		}
	} else {
		w = append([]float64(nil), w...)
	}

	// Merged boundary times: every candidate's change points, plus 0 so the
	// envelope covers clamped queries before the first change.
	times := make([]sim.Time, 0, total+1)
	times = append(times, 0)
	for _, tr := range traces {
		for _, t := range tr.times {
			if t < end {
				times = append(times, t)
			}
		}
	}
	sort.Float64s(times)

	e := &Envelope{ids: append([]ID(nil), ids...), weights: w, end: end}
	e.segs = make([]envSeg, 0, len(times))
	idx := make([]int, len(ids)) // per-trace index of last point with T <= t
	prev := sim.Time(-1)
	for _, t := range times {
		if t == prev {
			continue // dedupe shared boundaries
		}
		prev = t
		arg, best, bestW := -1, 0.0, 0.0
		for i, tr := range traces {
			j := idx[i]
			for j+1 < len(tr.times) && tr.times[j+1] <= t {
				j++
			}
			idx[i] = j
			p := tr.prices[j]
			wp := w[i] * p
			if arg == -1 || wp < bestW {
				arg, best, bestW = i, p, wp
			}
		}
		if n := len(e.segs); n > 0 && e.segs[n-1].arg == arg && e.segs[n-1].price == best {
			continue // coalesce: winner and price unchanged
		}
		e.segs = append(e.segs, envSeg{t: t, arg: arg, price: best, weighted: bestW})
	}
	return e
}

// IDs returns the candidate markets, in scan order. Callers must not modify
// the result.
func (e *Envelope) IDs() []ID { return e.ids }

// Len returns the number of envelope segments.
func (e *Envelope) Len() int { return len(e.segs) }

// End returns the envelope's horizon (the earliest candidate trace end).
func (e *Envelope) End() sim.Time { return e.end }

// At returns the cheapest candidate at time t by binary search: the market,
// its raw price, and its weighted price. Prefer Cursor for the monotone
// queries of a simulation clock.
func (e *Envelope) At(t sim.Time) (id ID, price, weighted float64) {
	i := sort.Search(len(e.segs), func(j int) bool { return e.segs[j].t > t }) - 1
	if i < 0 {
		i = 0
	}
	s := e.segs[i]
	return e.ids[s.arg], s.price, s.weighted
}

// Cursor returns a new cursor over the envelope, positioned at the start.
type EnvelopeCursor struct {
	e *Envelope
	i int
}

// Cursor returns a fresh per-run cursor for monotone queries.
func (e *Envelope) Cursor() *EnvelopeCursor { return &EnvelopeCursor{e: e} }

// At returns the cheapest candidate at time t with O(1) amortized cost for
// non-decreasing t; backward queries re-seek with a binary search.
func (c *EnvelopeCursor) At(t sim.Time) (id ID, price, weighted float64) {
	arg, price, weighted := c.AtIndex(t)
	return c.e.ids[arg], price, weighted
}

// AtIndex is At naming the cheapest candidate by its index in IDs, for
// callers that keep per-candidate state in slices.
func (c *EnvelopeCursor) AtIndex(t sim.Time) (arg int, price, weighted float64) {
	segs := c.e.segs
	i := c.i
	if segs[i].t > t {
		i = sort.Search(len(segs), func(j int) bool { return segs[j].t > t }) - 1
		if i < 0 {
			i = 0
		}
	} else {
		steps := 0
		for i+1 < len(segs) && segs[i+1].t <= t {
			i++
			steps++
			if steps == cursorGallopLimit {
				rest := segs[i+1:]
				i += sort.Search(len(rest), func(j int) bool { return rest[j].t > t })
				break
			}
		}
	}
	c.i = i
	s := segs[i]
	return s.arg, s.price, s.weighted
}
