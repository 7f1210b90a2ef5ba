package forecast

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spothost/internal/market"
	"spothost/internal/sim"
)

func TestDecayingMomentsConstantSignal(t *testing.T) {
	dm := NewDecayingMoments(3600)
	dm.Observe(0, 5)
	dm.Observe(1000, 5)
	dm.Observe(5000, 5)
	if got := dm.Mean(6000); math.Abs(got-5) > 1e-9 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := dm.Std(6000); got > 1e-6 { // floating-point floor
		t.Fatalf("std of constant = %v", got)
	}
}

func TestDecayingMomentsStep(t *testing.T) {
	// Signal 0 for a long time, then 10: with a short half-life the mean
	// converges toward 10 quickly.
	dm := NewDecayingMoments(60)
	dm.Observe(0, 0)
	dm.Observe(10000, 10) // 0 held for 10000 s
	if got := dm.Mean(10000); got > 0.01 {
		t.Fatalf("mean right at the step = %v, want ~0", got)
	}
	if got := dm.Mean(10600); got < 9.9 {
		t.Fatalf("mean 10 half-lives after step = %v, want ~10", got)
	}
}

func TestDecayingMomentsTwoLevels(t *testing.T) {
	// Long-run alternation between 1 and 3 with equal durations: mean ~2,
	// std ~1.
	dm := NewDecayingMoments(2000)
	v := 1.0
	for ts := 0.0; ts < 100000; ts += 100 {
		dm.Observe(ts, v)
		if v == 1 {
			v = 3
		} else {
			v = 1
		}
	}
	if got := dm.Mean(100000); math.Abs(got-2) > 0.1 {
		t.Fatalf("mean = %v, want ~2", got)
	}
	if got := dm.Std(100000); math.Abs(got-1) > 0.1 {
		t.Fatalf("std = %v, want ~1", got)
	}
}

func TestDecayingMomentsOutOfOrderIgnored(t *testing.T) {
	dm := NewDecayingMoments(100)
	dm.Observe(1000, 5)
	dm.Observe(500, 99) // ignored
	dm.Observe(2000, 5)
	if got := dm.Std(2000); got > 1e-9 {
		t.Fatalf("out-of-order corrupted: std=%v", got)
	}
}

func TestDecayingMomentsUnprimed(t *testing.T) {
	dm := NewDecayingMoments(100)
	if dm.Mean(10) != 0 || dm.Std(10) != 0 {
		t.Fatal("unprimed tracker should be zero")
	}
	dm.Observe(0, 7)
	// Single observation, no elapsed weight: mean falls back to the value.
	if got := dm.Mean(0); got != 7 {
		t.Fatalf("single-obs mean = %v", got)
	}
}

func TestDecayingMomentsPanicsOnBadHalflife(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDecayingMoments(0)
}

func TestDecayingMomentsStdNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(n uint8) bool {
		dm := NewDecayingMoments(500)
		ts := 0.0
		for i := 0; i < int(n)+2; i++ {
			ts += rng.Float64() * 1000
			dm.Observe(ts, rng.Float64()*10)
		}
		return dm.Std(ts+100) >= 0 && !math.IsNaN(dm.Std(ts+100))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mkTrace(t *testing.T, pts []market.Point, end sim.Time) *market.Trace {
	t.Helper()
	tr, err := market.NewTrace(market.ID{Region: "r", Type: "small"}, pts, end)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrailingStats(t *testing.T) {
	tr := mkTrace(t, []market.Point{{T: 0, Price: 1}, {T: 1000, Price: 3}}, 5000)
	// Window covering only the flat tail: zero std.
	if got := TrailingStd(tr, 3000, 1000, 100); got != 0 {
		t.Fatalf("flat trailing std = %v", got)
	}
	// Window straddling the step: positive std.
	if got := TrailingStd(tr, 1500, 1500, 100); got <= 0 {
		t.Fatalf("straddling std = %v", got)
	}
	// Degenerate inputs.
	if TrailingStd(tr, 1000, 0, 100) != 0 || TrailingStd(tr, 1000, 100, 0) != 0 {
		t.Fatal("degenerate windows should be 0")
	}
}

func TestScore(t *testing.T) {
	if Score(1, 2, 0) != 1 {
		t.Fatal("lambda 0 should be pure mean")
	}
	if Score(1, 2, 0.5) != 2 {
		t.Fatal("score arithmetic wrong")
	}
	// A cheap volatile market can lose to a pricier stable one.
	cheapVolatile := Score(0.02, 0.10, 1)
	pricierStable := Score(0.04, 0.01, 1)
	if cheapVolatile < pricierStable {
		t.Fatal("stability penalty had no effect")
	}
}

// TestDecayingMomentsMatchesTrailingStd cross-validates the two volatility
// estimators on a generated trace: both should agree on which of two
// markets is more volatile.
func TestDecayingMomentsMatchesTrailingStd(t *testing.T) {
	cfg := market.DefaultConfig(3)
	cfg.Horizon = 6 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	volatile := set.Trace(market.ID{Region: "us-east-1b", Type: "small"})
	stable := set.Trace(market.ID{Region: "eu-west-1a", Type: "small"})

	measure := func(tr *market.Trace) (decayed, trailing float64) {
		dm := NewDecayingMoments(12 * sim.Hour)
		cur := tr.Start()
		dm.Observe(cur, tr.PriceAt(cur))
		for {
			nt, np, ok := tr.NextChangeAfter(cur)
			if !ok {
				break
			}
			dm.Observe(nt, np)
			cur = nt
		}
		at := tr.End() - 1
		return dm.Std(at) / tr.PriceAt(0), TrailingStd(tr, at, 2*sim.Day, 300) / tr.PriceAt(0)
	}
	dv, tv := measure(volatile)
	ds, ts := measure(stable)
	if (dv > ds) != (tv > ts) {
		t.Fatalf("estimators disagree: decayed %v/%v, trailing %v/%v", dv, ds, tv, ts)
	}
}

// FuzzVolatility checks the lazy fold against an eager DecayingMoments that
// observes every change as it fires, bit for bit. Traces step in whole
// seconds, scaled by up to an hour so the 12 h decay matters; the fold may
// start on a change time; and the non-decreasing reads often land exactly
// on one. A change tied with a read reaches the eager tracker before or
// after it, per a fuzzed bit, as a price event and a decision at one
// instant may fire in either order. A copy taken mid-way and read only at
// the end must agree too, so reads and copies never perturb the fold.
func FuzzVolatility(f *testing.F) {
	f.Add([]byte{2, 6, 3, 1, 5, 2, 7, 0, 1, 3, 1, 5, 2, 1, 0, 3, 1, 2, 4, 3, 1, 9, 3})
	f.Add([]byte{1, 12, 0, 0, 7, 3, 2, 1, 4, 2, 1, 3, 5, 0, 6, 1, 3, 2, 2, 1, 1, 3, 3, 0, 2, 1, 4, 5})
	f.Add([]byte{0, 4, 1, 1, 2, 1, 1, 1, 0, 2, 3, 3, 1, 7, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		unit := []sim.Duration{1, sim.Minute, sim.Hour}[next()%3]
		n := 1 + next()%16
		pts := make([]market.Point, 0, n)
		tm := sim.Time(0)
		for i := 0; i < n; i++ {
			pts = append(pts, market.Point{T: tm, Price: float64(1+next()%8) / 8})
			tm += sim.Time(1+next()%4) * unit
		}
		tr := mkTrace(t, pts, tm+unit)
		times, prices := tr.Times(), tr.Prices()

		now := sim.Time(next()%5) * unit
		v := NewVolatility(tr, now)
		eager := NewDecayingMoments(Halflife)
		eager.Observe(now, tr.PriceAt(now))
		j := sort.Search(len(times), func(i int) bool { return times[i] > now })
		copyAt := next() % 8
		var copied Volatility
		for step := 0; len(data) > 0; step++ {
			if step == copyAt {
				copied = v
			}
			b := next()
			if b&1 != 0 && j < len(times) {
				now = times[j]
			} else {
				now += sim.Time((b>>2)%4) * unit
			}
			tieFirst := b&2 != 0
			for j < len(times) && (times[j] < now || tieFirst && times[j] == now) {
				eager.Observe(times[j], prices[j])
				j++
			}
			if got, want := v.Std(now), eager.Std(now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Std(%v) = %v, eager tracker %v", now, got, want)
			}
		}
		if copied.times != nil {
			if got, want := copied.Std(now), v.Std(now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("copy Std(%v) = %v, original %v", now, got, want)
			}
		}
	})
}
