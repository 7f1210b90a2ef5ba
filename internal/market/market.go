// Package market models cloud spot markets: identifiers for (region,
// instance type) pairs, piecewise-constant price traces, a synthetic price
// generator whose dynamics are calibrated to the behaviour the paper's
// algorithms exploit, and CSV import/export for replaying real AWS spot
// price history.
//
// The paper seeds its simulations with Amazon's published spot price
// history (Fig. 1). That data is not available offline, so Generate
// produces synthetic traces with the same load-bearing properties:
//
//   - a low, slowly wandering base price (10-30 % of on-demand),
//   - a Poisson process of sharp price spikes with heavy-tailed magnitude,
//     occasionally exceeding the on-demand price and, rarely, the 4x
//     on-demand bid cap,
//   - region-scaled volatility (us-east markets spike more than eu-west,
//     Fig. 10),
//   - weak cross-market and cross-region correlation produced by shared
//     shock processes (Fig. 8b, 9b).
package market

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"spothost/internal/sim"
)

// Region names a cloud region/availability-zone, e.g. "us-east-1a".
type Region string

// InstanceType names a server size, e.g. "small".
type InstanceType string

// ID identifies one spot market: an instance type sold in a region.
type ID struct {
	Region Region
	Type   InstanceType
}

// String returns "region/type".
func (id ID) String() string { return string(id.Region) + "/" + string(id.Type) }

// MarshalText renders the ID as "region/type", making it usable as a JSON
// map key (fleet reports keyed by market stream over the control-plane
// API). encoding/json sorts text-marshaled map keys, so such documents
// are deterministic.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// ParseIDs parses market names written as "region/type": exactly one
// "/" with both sides non-empty, after trimming surrounding spaces.
func ParseIDs(names []string) ([]ID, error) {
	var out []ID
	for _, name := range names {
		bits := strings.Split(strings.TrimSpace(name), "/")
		if len(bits) != 2 || bits[0] == "" || bits[1] == "" {
			return nil, fmt.Errorf("bad market %q, want region/type", name)
		}
		out = append(out, ID{Region: Region(bits[0]), Type: InstanceType(bits[1])})
	}
	return out, nil
}

// UnmarshalText parses "region/type".
func (id *ID) UnmarshalText(b []byte) error {
	s := string(b)
	i := strings.IndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return fmt.Errorf("market: bad ID %q, want region/type", s)
	}
	id.Region, id.Type = Region(s[:i]), InstanceType(s[i+1:])
	return nil
}

// Point is one step of a piecewise-constant price trace: the price holds
// from T until the next point's T.
type Point struct {
	T     sim.Time
	Price float64
}

// Trace is a piecewise-constant spot price series for one market over
// [Start, End). Steps are strictly increasing in time; the first step is
// at Start.
//
// Storage is columnar (struct-of-arrays): step times and prices live in
// separate slices, so the cursor seek loops and the sweep engine's
// divergence oracles scan 8 bytes per step instead of 16, and NewSet can
// repack every trace of a universe into one shared arena for locality.
type Trace struct {
	id     ID
	times  []sim.Time // column: step times, strictly increasing
	prices []float64  // column: price in effect from times[i]
	end    sim.Time
}

// NewTrace builds a trace from points, which must be non-empty, at finite
// times sorted strictly increasing, and all have finite positive prices;
// end must be finite and after the last point. Consecutive points with
// equal prices are coalesced. The negated comparisons reject NaN too.
func NewTrace(id ID, points []Point, end sim.Time) (*Trace, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("market: trace %s has no points", id)
	}
	times := make([]sim.Time, 0, len(points))
	prices := make([]float64, 0, len(points))
	for i, p := range points {
		if !(p.Price > 0) || math.IsInf(p.Price, 1) {
			return nil, fmt.Errorf("market: trace %s has price %v at t=%v, want finite and positive", id, p.Price, p.T)
		}
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) {
			return nil, fmt.Errorf("market: trace %s has non-finite time %v at index %d", id, p.T, i)
		}
		if i > 0 && p.T <= points[i-1].T {
			return nil, fmt.Errorf("market: trace %s has non-increasing time at index %d", id, i)
		}
		if len(prices) > 0 && prices[len(prices)-1] == p.Price {
			continue // coalesce equal consecutive prices
		}
		times = append(times, p.T)
		prices = append(prices, p.Price)
	}
	if !(end > times[len(times)-1]) || math.IsInf(end, 1) {
		return nil, fmt.Errorf("market: trace %s end %v not a finite time after last point %v", id, end, times[len(times)-1])
	}
	return &Trace{id: id, times: times, prices: prices, end: end}, nil
}

// Start returns the time of the first point.
func (tr *Trace) Start() sim.Time { return tr.times[0] }

// End returns the exclusive end of the trace.
func (tr *Trace) End() sim.Time { return tr.end }

// Len returns the number of price steps.
func (tr *Trace) Len() int { return len(tr.times) }

// Times returns the step-time column: strictly increasing times at which
// the price changes. Callers must not modify the result.
func (tr *Trace) Times() []sim.Time { return tr.times }

// Prices returns the price column: Prices()[i] holds from Times()[i] until
// Times()[i+1] (or End). Callers must not modify the result.
func (tr *Trace) Prices() []float64 { return tr.prices }

// PriceAt returns the price in effect at time t. Times before Start clamp
// to the first price; times at or beyond End clamp to the last.
func (tr *Trace) PriceAt(t sim.Time) float64 {
	// Index of the last step with time <= t.
	i := sort.Search(len(tr.times), func(i int) bool { return tr.times[i] > t })
	if i == 0 {
		return tr.prices[0]
	}
	return tr.prices[i-1]
}

// NextChangeAfter returns the time and price of the first step strictly
// after t. ok is false when no further change exists before End.
func (tr *Trace) NextChangeAfter(t sim.Time) (at sim.Time, price float64, ok bool) {
	i := sort.Search(len(tr.times), func(i int) bool { return tr.times[i] > t })
	if i >= len(tr.times) {
		return 0, 0, false
	}
	return tr.times[i], tr.prices[i], true
}

// TimeWeightedMean returns the time-weighted average price over the window
// [start, end) (clamped to the trace extent).
func (tr *Trace) TimeWeightedMean(start, end sim.Time) float64 {
	if end > tr.end {
		end = tr.end
	}
	if start < tr.Start() {
		start = tr.Start()
	}
	if end <= start {
		return tr.PriceAt(start)
	}
	ts := tr.times
	i := sort.Search(len(ts), func(j int) bool { return ts[j] > start }) - 1
	if i < 0 {
		i = 0
	}
	total := 0.0
	t := start
	p := tr.prices[i]
	for i+1 < len(ts) && ts[i+1] < end {
		total += p * (ts[i+1] - t)
		t, p = ts[i+1], tr.prices[i+1]
		i++
	}
	total += p * (end - t)
	return total / (end - start)
}

// FractionAbove returns the fraction of [start, end) during which the price
// strictly exceeds threshold. This drives the pure-spot unavailability
// analysis (Fig. 11b).
func (tr *Trace) FractionAbove(threshold float64, start, end sim.Time) float64 {
	if end > tr.end {
		end = tr.end
	}
	if start < tr.Start() {
		start = tr.Start()
	}
	if end <= start {
		return 0
	}
	ts := tr.times
	i := sort.Search(len(ts), func(j int) bool { return ts[j] > start }) - 1
	if i < 0 {
		i = 0
	}
	above := 0.0
	t := start
	p := tr.prices[i]
	for {
		seg := end
		if i+1 < len(ts) && ts[i+1] < end {
			seg = ts[i+1]
		}
		if p > threshold {
			above += seg - t
		}
		if i+1 >= len(ts) || ts[i+1] >= end {
			break
		}
		i++
		t, p = ts[i], tr.prices[i]
	}
	frac := above / (end - start)
	// Clamp float accumulation error: the result is a fraction by
	// construction.
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return frac
}

// Max returns the maximum price over the whole trace.
func (tr *Trace) Max() float64 {
	m := 0.0
	for _, p := range tr.prices {
		if p > m {
			m = p
		}
	}
	return m
}

// Min returns the minimum price over the whole trace.
func (tr *Trace) Min() float64 {
	m := tr.prices[0]
	for _, p := range tr.prices {
		if p < m {
			m = p
		}
	}
	return m
}

// Set is a collection of traces for a universe of markets plus the
// on-demand price catalog they were generated against.
type Set struct {
	traces   map[ID]*Trace
	ids      []ID // the keys of traces, sorted by region, then type
	onDemand map[ID]float64
	types    map[InstanceType]TypeSpec // typed view; nil for untyped sets
	end      sim.Time

	// Lower-envelope memoization: sets are immutable once built and shared
	// across runs via market.Cache, so each (candidates, weights) envelope
	// is built once and reused by every concurrent simulation.
	envMu sync.Mutex
	envs  map[string]*envEntry
}

type envEntry struct {
	once sync.Once
	env  *Envelope
}

// Envelope returns the precomputed lower envelope over the given candidate
// markets, memoized on the set. weights scales each candidate's price when
// comparing (nil means all 1). The result is shared and immutable; use
// Envelope.Cursor for monotone queries. Returns nil when ids is empty or
// any id has no trace in the set.
func (s *Set) Envelope(ids []ID, weights []float64) *Envelope {
	if len(ids) == 0 || (weights != nil && len(weights) != len(ids)) {
		return nil
	}
	var key strings.Builder
	for i, id := range ids {
		key.WriteString(id.String())
		key.WriteByte('|')
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		key.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
		key.WriteByte(';')
	}
	k := key.String()
	s.envMu.Lock()
	e, ok := s.envs[k]
	if !ok {
		if s.envs == nil {
			s.envs = map[string]*envEntry{}
		}
		e = &envEntry{}
		s.envs[k] = e
	}
	s.envMu.Unlock()
	e.once.Do(func() { e.env = buildEnvelope(s, ids, weights) })
	return e.env
}

// NewSet assembles a Set from traces and an on-demand price catalog. Every
// trace must have a catalog entry, a finite positive price.
//
// The set repacks every trace's columns into one shared arena (one times
// slab, one prices slab for the whole universe): a Set is immutable and
// shared read-only across all concurrent workers of a sweep, so the arena
// gives every simulation of the universe the same two contiguous,
// cache-friendly slabs instead of two allocations per market. The input
// traces are not modified.
func NewSet(traces []*Trace, onDemand map[ID]float64) (*Set, error) {
	return NewSetTyped(traces, onDemand, nil)
}

// NewSetTyped is NewSet with an attached instance-type table: the typed
// source of truth for sets built from a catalog (Generate attaches its
// config's types automatically). types may be nil for untyped sets
// (replayed price files without size metadata); when present, every
// trace's instance type must appear in it.
func NewSetTyped(traces []*Trace, onDemand map[ID]float64, types []TypeSpec) (*Set, error) {
	s := &Set{traces: map[ID]*Trace{}, onDemand: map[ID]float64{}}
	if types != nil {
		s.types = make(map[InstanceType]TypeSpec, len(types))
		for _, ts := range types {
			s.types[ts.Name] = ts
		}
	}
	total := 0
	for _, tr := range traces {
		if _, dup := s.traces[tr.id]; dup {
			return nil, fmt.Errorf("market: duplicate trace %s", tr.id)
		}
		od, ok := onDemand[tr.id]
		if !ok || !(od > 0) || math.IsInf(od, 1) {
			return nil, fmt.Errorf("market: missing/invalid on-demand price for %s", tr.id)
		}
		if s.types != nil {
			if _, ok := s.types[tr.id.Type]; !ok {
				return nil, fmt.Errorf("market: trace %s has no type table entry for %q", tr.id, tr.id.Type)
			}
		}
		s.traces[tr.id] = tr
		s.onDemand[tr.id] = od
		total += tr.Len()
		if s.end == 0 || tr.End() < s.end {
			s.end = tr.End()
		}
	}
	if len(s.traces) == 0 {
		return nil, fmt.Errorf("market: empty set")
	}
	s.ids = make([]ID, 0, len(s.traces))
	for id := range s.traces {
		s.ids = append(s.ids, id)
	}
	sort.Slice(s.ids, func(i, j int) bool {
		if s.ids[i].Region != s.ids[j].Region {
			return s.ids[i].Region < s.ids[j].Region
		}
		return s.ids[i].Type < s.ids[j].Type
	})
	// Repack into the arena in deterministic (sorted-ID) order.
	arenaT := make([]sim.Time, 0, total)
	arenaP := make([]float64, 0, total)
	for _, id := range s.ids {
		tr := s.traces[id]
		lo := len(arenaT)
		arenaT = append(arenaT, tr.times...)
		arenaP = append(arenaP, tr.prices...)
		s.traces[id] = &Trace{
			id:     tr.id,
			times:  arenaT[lo:len(arenaT):len(arenaT)],
			prices: arenaP[lo:len(arenaP):len(arenaP)],
			end:    tr.end,
		}
	}
	return s, nil
}

// Trace returns the trace for id, or nil when absent.
func (s *Set) Trace(id ID) *Trace { return s.traces[id] }

// OnDemand returns the fixed on-demand price for the market's instance
// type in its region, or 0 when unknown.
func (s *Set) OnDemand(id ID) float64 { return s.onDemand[id] }

// Horizon returns the common usable end time across all traces.
func (s *Set) Horizon() sim.Time { return s.end }

// ClampHorizon is the horizon a run over the set uses: h itself, or the
// traces' common extent when h is zero, negative or longer than it.
func (s *Set) ClampHorizon(h sim.Duration) sim.Duration {
	if h <= 0 || h > s.end {
		return s.end
	}
	return h
}

// IDs returns all market identifiers, sorted by region, then type. The
// slice is the set's own, shared by every caller: do not modify it.
func (s *Set) IDs() []ID { return s.ids[:len(s.ids):len(s.ids)] }

// Regions returns the distinct regions present, sorted.
func (s *Set) Regions() []Region {
	seen := map[Region]bool{}
	var out []Region
	for _, id := range s.IDs() {
		if !seen[id.Region] {
			seen[id.Region] = true
			out = append(out, id.Region)
		}
	}
	return out
}

// TypesIn returns the instance types available in a region, sorted.
func (s *Set) TypesIn(r Region) []InstanceType {
	var out []InstanceType
	for _, id := range s.IDs() {
		if id.Region == r {
			out = append(out, id.Type)
		}
	}
	return out
}
