package market

import (
	"math"
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

// buildEnvelope sweeps the merged change times of the candidate traces
// and records the weighted argmin on each piece. One tournament tree
// merges the candidates' sorted time columns by each one's next change;
// another keeps the argmin of the weighted prices. The cost is O(T log M)
// for T total points across M candidates, paid once per (set, candidates,
// weights) and memoized on the Set.
func buildEnvelope(s *Set, ids []ID, weights []float64) *Envelope {
	traces := make([]*Trace, len(ids))
	end := sim.Time(0)
	for i, id := range ids {
		tr := s.Trace(id)
		if tr == nil {
			return nil
		}
		traces[i] = tr
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

	// Two tournaments over the candidates: one picks the cheapest weighted
	// price, the other merges the time columns by each one's next change.
	raw := make([]float64, len(ids))    // per-trace price in effect
	vals := make([]float64, len(ids))   // raw, weighted
	nexts := make([]sim.Time, len(ids)) // per-trace time of the next point to apply
	pending := make([]int, len(ids))    // per-trace index of that point
	for i, tr := range traces {
		raw[i] = tr.prices[0]
		vals[i] = w[i] * raw[i]
		nexts[i] = tr.times[0]
	}
	cheapest, merge := newTournament(vals), newTournament(nexts)

	// segs grows by append: coalescing keeps only a few percent of the
	// change times, and a memoized envelope lives as long as its Set.
	e := &Envelope{ids: append([]ID(nil), ids...), weights: w, end: end}
	zero := true // 0 is always a boundary, covering clamped queries before the first change
	// Boundaries come out distinct, so prev only skips a first boundary at
	// exactly -1, as the reference builder in oracle_test.go does.
	prev := sim.Time(-1)
	for {
		// The next boundary: the earliest pending change before end, or 0.
		var t sim.Time
		switch next := merge.min(); {
		case next < end && (!zero || next < 0):
			t = next
		case zero:
			zero = false
		default:
			return e
		}
		// Apply every change due by t before reading the winner: shared
		// shocks move several candidates at one instant.
		for merge.min() <= t {
			i := merge.winner()
			tr := traces[i]
			k := pending[i]
			raw[i] = tr.prices[k]
			cheapest.set(i, w[i]*raw[i])
			pending[i] = k + 1
			if k+1 < len(tr.times) {
				merge.set(i, tr.times[k+1])
			} else {
				merge.set(i, math.Inf(1))
			}
		}
		if t == prev {
			continue
		}
		prev = t
		arg := cheapest.winner()
		best, bestW := raw[arg], cheapest.min()
		if last := len(e.segs) - 1; last >= 0 && e.segs[last].arg == arg && e.segs[last].price == best {
			continue // coalesce: winner and price unchanged
		}
		e.segs = append(e.segs, envSeg{t: t, arg: arg, price: best, weighted: bestW})
	}
}

// tournament is a winner tree over float keys. Leaf n+i holds key i and
// each inner node the winner of its children: the right one only if its
// key is strictly smaller. Every left subtree holds the lower indices, so
// ties go to the lower index and the root is the first strict minimum,
// the pick of a linear scan. Padding leaves hold +Inf and never win.
type tournament struct {
	n    int
	tree []int
	keys []float64
}

// newTournament builds the tree over keys, which must not be empty.
func newTournament(keys []float64) *tournament {
	n := 1
	for n < len(keys) {
		n *= 2
	}
	t := &tournament{n: n, tree: make([]int, 2*n), keys: make([]float64, n)}
	for i := range t.keys {
		t.tree[n+i] = i
		t.keys[i] = math.Inf(1)
	}
	copy(t.keys, keys)
	for k := n - 1; k >= 1; k-- {
		t.play(k)
	}
	return t
}

func (t *tournament) play(k int) {
	l, r := t.tree[2*k], t.tree[2*k+1]
	if t.keys[r] < t.keys[l] {
		l = r
	}
	t.tree[k] = l
}

// winner is the index of the first smallest key; min is that key.
func (t *tournament) winner() int  { return t.tree[1] }
func (t *tournament) min() float64 { return t.keys[t.tree[1]] }

// set changes key i and replays its path to the root in O(log n).
func (t *tournament) set(i int, key float64) {
	t.keys[i] = key
	for k := (t.n + i) / 2; k >= 1; k /= 2 {
		was := t.tree[k]
		t.play(k)
		if t.tree[k] == was && was != i {
			return // same winner at the same key: nothing above moves
		}
	}
}

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
