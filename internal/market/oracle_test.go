package market

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spothost/internal/randx"
	"spothost/internal/sim"
)

// The reference builders below are the sort-based generator and envelope
// builder that the merge-based ones replaced, kept verbatim as oracles:
// every boundary list is sorted from scratch, every boundary rescans every
// shock, and every envelope piece scans every candidate.

// generateRef is Generate with its reflection sort of shocks and the
// sort-based synthesizeRef.
func generateRef(cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	globalRng := randx.Derive(cfg.Seed, "shock/global")
	global := poissonShocks(globalRng, cfg, cfg.SpikesPerDay*0.6, 1)
	globalFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/global"),
		cfg.Horizon, cfg.StepMean, cfg.BaseAR)

	onDemand := map[ID]float64{}
	var traces []*Trace
	for _, rs := range cfg.Regions {
		regionRng := randx.Derive(cfg.Seed, "shock/region/"+string(rs.Name))
		regional := poissonShocks(regionRng, cfg, cfg.SpikesPerDay*rs.Volatility, 1)
		regionFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/region/"+string(rs.Name)),
			cfg.Horizon, cfg.StepMean, cfg.BaseAR)

		for _, ts := range cfg.Types {
			id := ID{Region: rs.Name, Type: ts.Name}
			od := OnDemandPrice(rs, ts)
			onDemand[id] = od
			rng := randx.Derive(cfg.Seed, "market/"+id.String())

			var shocks []shock
			for _, sh := range regional {
				if rng.Bernoulli(cfg.RegionShareProb) {
					sh.ratio *= rng.LognormalMeanCV(1, 0.25)
					shocks = append(shocks, sh)
				}
			}
			for _, sh := range global {
				if rng.Bernoulli(cfg.GlobalShareProb) {
					sh.ratio *= rng.LognormalMeanCV(1, 0.25)
					shocks = append(shocks, sh)
				}
			}
			localRate := cfg.SpikesPerDay * rs.Volatility * (1 - cfg.RegionShareProb)
			shocks = append(shocks, poissonShocks(rng.Derive("local"), cfg, localRate, 1)...)
			sort.Slice(shocks, func(i, j int) bool { return shocks[i].start < shocks[j].start })

			points := synthesizeRef(rng.Derive("base"), cfg, rs, od, shocks, globalFactor, regionFactor)
			tr, err := NewTrace(id, points, cfg.Horizon)
			if err != nil {
				return nil, fmt.Errorf("market: generating %s: %w", id, err)
			}
			traces = append(traces, tr)
		}
	}
	return NewSetTyped(traces, onDemand, cfg.Types)
}

// synthesizeRef sorts all boundaries of one market and rescans the shocks
// at each.
func synthesizeRef(rng *randx.Stream, cfg Config, rs RegionSpec, od float64, shocks []shock,
	globalFactor, regionFactor *factorSeries) []Point {
	sigma := cfg.BaseCV * math.Sqrt(rs.Volatility)
	gw, rw := cfg.GlobalBaseWeight, cfg.RegionBaseWeight
	lw := math.Sqrt(1 - gw*gw - rw*rw)
	wLocal := rng.NormFloat64()
	now := sim.Time(0)
	base := func() float64 {
		w := sigma * (gw*globalFactor.Value(now) + rw*regionFactor.Value(now) + lw*wLocal)
		p := rs.BaseRatio * od * math.Exp(w-sigma*sigma/2)
		if p < 0.001 {
			p = 0.001
		}
		return p
	}

	type boundary struct {
		t      sim.Time
		isBase bool
	}
	var bounds []boundary
	for t := rng.Exp(cfg.StepMean); t < cfg.Horizon; t += rng.Exp(cfg.StepMean) {
		bounds = append(bounds, boundary{t: t, isBase: true})
	}
	for _, sh := range shocks {
		bounds = append(bounds, boundary{t: sh.start}, boundary{t: sh.end})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].t < bounds[j].t })

	activeShockRatio := func(t sim.Time) float64 {
		r := 0.0
		for _, sh := range shocks {
			if sh.start > t {
				break
			}
			if t >= sh.start && t < sh.end && sh.ratio > r {
				r = sh.ratio
			}
		}
		return r
	}

	priceAt := func(t sim.Time) float64 {
		now = t
		b := base()
		if r := activeShockRatio(t); r > 0 {
			p := r * od
			if p < b {
				p = b
			}
			return p
		}
		return b
	}

	points := []Point{{T: 0, Price: priceAt(0)}}
	for _, bd := range bounds {
		if bd.t <= 0 || bd.t >= cfg.Horizon {
			continue
		}
		if bd.isBase {
			wLocal = cfg.BaseAR*wLocal + math.Sqrt(1-cfg.BaseAR*cfg.BaseAR)*rng.NormFloat64()
		}
		points = append(points, Point{T: bd.t, Price: priceAt(bd.t)})
	}
	return points
}

// generateReserveRef is GenerateReserve over synthesizeReserveRef.
func generateReserveRef(cfg ReserveConfig) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var shockCfg Config
	if cfg.SpikesPerDay > 0 {
		shockCfg = DefaultConfig(cfg.Seed)
		shockCfg.Horizon = cfg.Horizon
		shockCfg.SpikesPerDay = cfg.SpikesPerDay
	}

	onDemand := map[ID]float64{}
	var traces []*Trace
	for _, rs := range cfg.Regions {
		for _, ts := range cfg.Types {
			id := ID{Region: rs.Name, Type: ts.Name}
			od := OnDemandPrice(rs, ts)
			onDemand[id] = od
			rng := randx.Derive(cfg.Seed, "reserve/"+id.String())

			var shocks []shock
			if cfg.SpikesPerDay > 0 {
				shocks = poissonShocks(rng.Derive("shocks"), shockCfg,
					cfg.SpikesPerDay*rs.Volatility, 1)
			}

			points := synthesizeReserveRef(rng, cfg, od, shocks)
			tr, err := NewTrace(id, points, cfg.Horizon)
			if err != nil {
				return nil, fmt.Errorf("market: reserve %s: %w", id, err)
			}
			traces = append(traces, tr)
		}
	}
	return NewSet(traces, onDemand)
}

// synthesizeReserveRef sorts all boundaries of one reserve market and
// scans every shock at each.
func synthesizeReserveRef(rng *randx.Stream, cfg ReserveConfig, od float64, shocks []shock) []Point {
	lo, hi := cfg.FloorRatio*od, cfg.CeilRatio*od
	mid := (lo + hi) / 2
	halfBand := (hi - lo) / 2

	x := rng.Uniform(-1, 1)
	priceOf := func(t sim.Time) float64 {
		p := mid + halfBand*x
		if p < lo {
			p = lo
		}
		if p > hi {
			p = hi
		}
		for _, sh := range shocks {
			if t >= sh.start && t < sh.end {
				if sp := sh.ratio * od; sp > p {
					p = sp
				}
			}
		}
		return p
	}

	type boundary struct {
		t      sim.Time
		isDraw bool
	}
	var bounds []boundary
	for t := rng.Exp(cfg.ChangeMean); t < cfg.Horizon; t += rng.Exp(cfg.ChangeMean) {
		bounds = append(bounds, boundary{t: t, isDraw: true})
	}
	for _, sh := range shocks {
		bounds = append(bounds, boundary{t: sh.start}, boundary{t: sh.end})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].t < bounds[j].t })

	points := []Point{{T: 0, Price: priceOf(0)}}
	for _, bd := range bounds {
		if bd.t <= 0 || bd.t >= cfg.Horizon {
			continue
		}
		if bd.isDraw {
			x = cfg.Persistence*x + math.Sqrt(1-cfg.Persistence*cfg.Persistence)*rng.Uniform(-1, 1)
		}
		points = append(points, Point{T: bd.t, Price: priceOf(bd.t)})
	}
	return points
}

// buildEnvelopeRef sorts the concatenated time columns and scans every
// candidate at each boundary.
func buildEnvelopeRef(s *Set, ids []ID, weights []float64) *Envelope {
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
	idx := make([]int, len(ids))
	prev := sim.Time(-1)
	for _, t := range times {
		if t == prev {
			continue
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
			continue
		}
		e.segs = append(e.segs, envSeg{t: t, arg: arg, price: best, weighted: bestW})
	}
	return e
}

// sameFloats reports whether a and b hold the same bits, element by
// element.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameSet fails unless got and want hold the same markets with
// bit-identical traces and on-demand prices.
func requireSameSet(t *testing.T, label string, got, want *Set) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs(), want.IDs()) {
		t.Fatalf("%s: markets %v, oracle %v", label, got.IDs(), want.IDs())
	}
	for _, id := range want.IDs() {
		g, w := got.Trace(id), want.Trace(id)
		if !sameFloats(g.Times(), w.Times()) || !sameFloats(g.Prices(), w.Prices()) ||
			g.End() != w.End() || got.OnDemand(id) != want.OnDemand(id) {
			t.Fatalf("%s: trace %s differs from the oracle (%d vs %d points)", label, id, g.Len(), w.Len())
		}
	}
}

// mixedWeights gives candidate i the weight 1/2^(i%4), the shape of a
// typed fleet's 1/units weights.
func mixedWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(int(1)<<(i%4))
	}
	return w
}

// oracleSeeds is how many seeds the oracle comparisons run; -short
// keeps a few.
func oracleSeeds() int64 {
	if testing.Short() {
		return 4
	}
	return 30
}

func TestGenerateMatchesOracle(t *testing.T) {
	// Stormy overlaps many long shocks, so the sweep's active set holds
	// several at once and sheds them out of start order.
	stormy := func(seed int64) Config {
		cfg := DefaultConfig(seed)
		cfg.SpikesPerDay = 12
		cfg.SpikeMeanDur = 6 * sim.Hour
		cfg.Horizon = 10 * sim.Day
		return cfg
	}
	for seed := int64(0); seed < oracleSeeds(); seed++ {
		for name, cfg := range map[string]Config{"default": DefaultConfig(seed), "stormy": stormy(seed)} {
			got, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := generateRef(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSet(t, fmt.Sprintf("%s seed %d", name, seed), got, want)
		}
	}
}

func TestGenerateReserveMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < oracleSeeds(); seed++ {
		for _, spikes := range []float64{0, 3} {
			cfg := DefaultReserveConfig(seed)
			cfg.SpikesPerDay = spikes
			got, err := GenerateReserve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := generateReserveRef(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSet(t, fmt.Sprintf("reserve seed %d spikes %v", seed, spikes), got, want)
		}
	}
}

func TestBuildEnvelopeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < oracleSeeds(); seed++ {
		s, err := Generate(DefaultConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		all := s.IDs()
		// The whole universe, one region's markets, and every third
		// market in reverse order.
		var odd []ID
		for i := len(all) - 1; i >= 0; i -= 3 {
			odd = append(odd, all[i])
		}
		for _, ids := range [][]ID{all, all[:4], odd} {
			for _, w := range [][]float64{nil, mixedWeights(len(ids))} {
				got, want := buildEnvelope(s, ids, w), buildEnvelopeRef(s, ids, w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d candidates, weights %v: envelope differs from the oracle (%d vs %d pieces)",
						seed, len(ids), w, len(got.segs), len(want.segs))
				}
			}
		}
	}
}

// TestTiedBoundaryRejected pins the argument that lets a merge replace the
// sort: boundaries at one time inside the horizon make NewTrace fail under
// either builder, so no universe Generate returns has ties whose order a
// sort could choose.
func TestTiedBoundaryRejected(t *testing.T) {
	cfg := DefaultConfig(3)
	rs := cfg.Regions[0]
	od := OnDemandPrice(rs, cfg.Types[0])
	globalFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/global"), cfg.Horizon, cfg.StepMean, cfg.BaseAR)
	regionFactor := newFactorSeries(randx.Derive(cfg.Seed, "factor/region"), cfg.Horizon, cfg.StepMean, cfg.BaseAR)

	// The first base re-sample time of stream 7: the wobble draw comes
	// first, then the gap.
	probe := randx.NewStream(7)
	probe.NormFloat64()
	firstStep := probe.Exp(cfg.StepMean)

	for name, shocks := range map[string][]shock{
		"shock ends as the next starts": {
			{start: sim.Hour, end: 3 * sim.Hour, ratio: 1.5},
			{start: 3 * sim.Hour, end: 4 * sim.Hour, ratio: 2},
		},
		"shock starts at a re-sample": {
			{start: firstStep, end: firstStep + sim.Hour, ratio: 1.5},
		},
	} {
		var msgs []string
		for _, synth := range []func(*randx.Stream, Config, RegionSpec, float64, []shock, *factorSeries, *factorSeries) []Point{
			synthesize, synthesizeRef,
		} {
			points := synth(randx.NewStream(7), cfg, rs, od, shocks, globalFactor, regionFactor)
			_, err := NewTrace(testID, points, cfg.Horizon)
			if err == nil || !strings.Contains(err.Error(), "non-increasing time") {
				t.Fatalf("%s: NewTrace error %v, want non-increasing time", name, err)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: merge error %q, oracle %q", name, msgs[0], msgs[1])
		}
	}
}

// FuzzEnvelope checks buildEnvelope against the oracle on small Sets built
// from fuzzed whole-second step lists: gaps of 1-4 s put change times of
// different markets on the same instant, start offsets from -2 to 3 s put
// a trace's first point before or after 0, ends differ, and prices in
// quarters under weights in powers of two make equal weighted prices
// common.
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 1, 1, 2, 1, 3, 2, 0, 2, 1, 2, 1, 1, 0}, false)
	f.Add([]byte{3, 5, 4, 2, 4, 1, 2, 3, 1, 0, 0, 4, 6, 1, 3, 2, 1, 1, 2, 2, 1, 1}, true)
	f.Add([]byte{4, 0, 1, 0, 0, 1, 1, 0, 0, 1, 2, 1, 0, 1, 3, 1, 2}, true)
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := 1 + next()%5
		traces := make([]*Trace, 0, m)
		onDemand := map[ID]float64{}
		ids := make([]ID, 0, m)
		var weights []float64
		for i := 0; i < m; i++ {
			id := ID{Region: Region(fmt.Sprintf("r%d", i)), Type: "small"}
			tm := sim.Time(next()%6 - 2)
			n := 1 + next()%12
			pts := make([]Point, 0, n)
			for j := 0; j < n; j++ {
				pts = append(pts, Point{T: tm, Price: float64(1+next()%4) / 4})
				tm += sim.Time(1 + next()%4)
			}
			tr, err := NewTrace(id, pts, tm+sim.Time(next()%3))
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr)
			onDemand[id] = 1
			ids = append(ids, id)
			if weighted {
				weights = append(weights, 1/float64(int(1)<<(next()%3)))
			}
		}
		s, err := NewSet(traces, onDemand)
		if err != nil {
			t.Fatal(err)
		}
		got, want := buildEnvelope(s, ids, weights), buildEnvelopeRef(s, ids, weights)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("envelope %+v, oracle %+v", got.segs, want.segs)
		}
	})
}
