package market

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"spothost/internal/sim"
)

func mustTrace(t *testing.T, id ID, pts []Point, end sim.Time) *Trace {
	t.Helper()
	tr, err := NewTrace(id, pts, end)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var testID = ID{Region: "us-east-1a", Type: "small"}

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(testID, nil, 10); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}, {0, 0.2}}, 10); err == nil {
		t.Error("non-increasing time accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, -1}}, 10); err == nil {
		t.Error("negative price accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}, {5, 0.2}}, 5); err == nil {
		t.Error("end not after last point accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}, {5, math.NaN()}}, 10); err == nil {
		t.Error("NaN price accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}, {5, math.Inf(1)}}, 10); err == nil {
		t.Error("+Inf price accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}, {math.NaN(), 0.2}}, 10); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := NewTrace(testID, []Point{{math.Inf(-1), 0.1}, {5, 0.2}}, 10); err == nil {
		t.Error("-Inf time accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}}, math.NaN()); err == nil {
		t.Error("NaN end accepted")
	}
	if _, err := NewTrace(testID, []Point{{0, 0.1}}, math.Inf(1)); err == nil {
		t.Error("+Inf end accepted")
	}
}

func TestTraceCoalesce(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 0.1}, {5, 0.1}, {10, 0.2}}, 20)
	if tr.Len() != 2 {
		t.Fatalf("equal consecutive prices not coalesced: len=%d", tr.Len())
	}
}

func TestPriceAt(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 0.1}, {10, 0.3}, {20, 0.05}}, 30)
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{-5, 0.1}, {0, 0.1}, {9.99, 0.1}, {10, 0.3}, {15, 0.3}, {20, 0.05}, {100, 0.05},
	}
	for _, c := range cases {
		if got := tr.PriceAt(c.t); got != c.want {
			t.Errorf("PriceAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestNextChangeAfter(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 0.1}, {10, 0.3}, {20, 0.05}}, 30)
	at, p, ok := tr.NextChangeAfter(0)
	if !ok || at != 10 || p != 0.3 {
		t.Fatalf("NextChangeAfter(0) = %v,%v,%v", at, p, ok)
	}
	at, p, ok = tr.NextChangeAfter(10)
	if !ok || at != 20 || p != 0.05 {
		t.Fatalf("NextChangeAfter(10) = %v,%v,%v", at, p, ok)
	}
	if _, _, ok = tr.NextChangeAfter(20); ok {
		t.Fatal("NextChangeAfter past last point should report !ok")
	}
}

func TestSample(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 1}, {10, 2}}, 20)
	got := tr.Sample(0, 20, 5)
	want := []float64{1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("sample = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample = %v, want %v", got, want)
		}
	}
	if tr.Sample(0, 20, 0) != nil || tr.Sample(20, 0, 5) != nil {
		t.Fatal("degenerate sampling should return nil")
	}
}

func TestTimeWeightedMean(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 1}, {10, 3}}, 20)
	if got := tr.TimeWeightedMean(0, 20); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %v, want 2", got)
	}
	if got := tr.TimeWeightedMean(10, 20); got != 3 {
		t.Fatalf("window mean = %v, want 3", got)
	}
	// Window clamping beyond the trace end.
	if got := tr.TimeWeightedMean(0, 100); math.Abs(got-2) > 1e-12 {
		t.Fatalf("clamped mean = %v, want 2", got)
	}
}

func TestFractionAbove(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 1}, {10, 5}, {15, 1}}, 20)
	if got := tr.FractionAbove(2, 0, 20); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("FractionAbove = %v, want 0.25", got)
	}
	if got := tr.FractionAbove(10, 0, 20); got != 0 {
		t.Fatalf("FractionAbove high threshold = %v", got)
	}
	if got := tr.FractionAbove(0.5, 0, 20); got != 1 {
		t.Fatalf("FractionAbove low threshold = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 0.3}, {10, 0.05}, {20, 2}}, 30)
	if tr.Min() != 0.05 || tr.Max() != 2 {
		t.Fatalf("min/max = %v/%v", tr.Min(), tr.Max())
	}
}

func TestSetValidation(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{0, 0.1}}, 10)
	if _, err := NewSet([]*Trace{tr}, map[ID]float64{}); err == nil {
		t.Error("missing on-demand accepted")
	}
	if _, err := NewSet([]*Trace{tr, tr}, map[ID]float64{testID: 0.06}); err == nil {
		t.Error("duplicate trace accepted")
	}
	if _, err := NewSet(nil, nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewSet([]*Trace{tr}, map[ID]float64{testID: math.NaN()}); err == nil {
		t.Error("NaN on-demand accepted")
	}
	if _, err := NewSet([]*Trace{tr}, map[ID]float64{testID: math.Inf(1)}); err == nil {
		t.Error("+Inf on-demand accepted")
	}
	s, err := NewSet([]*Trace{tr}, map[ID]float64{testID: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if s.OnDemand(testID) != 0.06 {
		t.Fatal("on-demand lookup broken")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Horizon = 3 * sim.Day
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.IDs() {
		ta, tb := a.Trace(id), b.Trace(id)
		if ta.Len() != tb.Len() {
			t.Fatalf("%s: lengths differ: %d vs %d", id, ta.Len(), tb.Len())
		}
		for i, at := range ta.Times() {
			if bt := tb.Times()[i]; at != bt || ta.Prices()[i] != tb.Prices()[i] {
				t.Fatalf("%s: step %d differs: (%v, %v) vs (%v, %v)",
					id, i, at, ta.Prices()[i], bt, tb.Prices()[i])
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Horizon = 2 * sim.Day
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	id := a.IDs()[0]
	if a.Trace(id).Len() == b.Trace(id).Len() {
		ta, tb := a.Trace(id), b.Trace(id)
		if slices.Equal(ta.Times(), tb.Times()) && slices.Equal(ta.Prices(), tb.Prices()) {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateUniverseShape(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Horizon = 5 * sim.Day
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.IDs()); got != 16 {
		t.Fatalf("want 4 regions x 4 types = 16 markets, got %d", got)
	}
	if got := len(s.Regions()); got != 4 {
		t.Fatalf("regions = %v", s.Regions())
	}
	if got := s.TypesIn("us-east-1a"); len(got) != 4 {
		t.Fatalf("types in us-east-1a = %v", got)
	}
	if s.Horizon() != cfg.Horizon {
		t.Fatalf("horizon = %v", s.Horizon())
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Types = nil },
		func(c *Config) { c.Horizon = 10 },
		func(c *Config) { c.Horizon = math.NaN() },
		func(c *Config) { c.Horizon = math.Inf(1) },
		func(c *Config) { c.SpikesPerDay = -1 },
		func(c *Config) { c.SpikesPerDay = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestValidateHorizonCap pins MaxHorizon through Validate alone, so no
// test generates a universe near the cap.
func TestValidateHorizonCap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Horizon = MaxHorizon - 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("horizon just under MaxHorizon rejected: %v", err)
	}
	cfg.Horizon = MaxHorizon + 1
	if err := cfg.Validate(); err == nil {
		t.Error("horizon just over MaxHorizon accepted")
	}
}

// TestCalibrationLowMeanPrice checks the property the paper's cost savings
// rest on: spot prices average well below on-demand.
func TestCalibrationLowMeanPrice(t *testing.T) {
	cfg := DefaultConfig(3)
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.IDs() {
		sum := Summarize(s, id)
		ratio := sum.Mean / sum.OnDemand
		if ratio < 0.05 || ratio > 0.55 {
			t.Errorf("%s: mean/on-demand = %.3f, want low spot regime", id, ratio)
		}
	}
}

// TestCalibrationSpikeRegime checks that prices occasionally exceed
// on-demand (driving migrations) and, more rarely, the 4x bid cap
// (driving proactive forced migrations) — but not so often that spot
// hosting stops making sense.
func TestCalibrationSpikeRegime(t *testing.T) {
	cfg := DefaultConfig(5)
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anyAboveOD, anyAbove4x := false, false
	for _, id := range s.IDs() {
		sum := Summarize(s, id)
		if sum.FracAboveOD > 0.15 {
			t.Errorf("%s: price above on-demand %.1f%% of the time — too hot", id, sum.FracAboveOD*100)
		}
		if sum.FracAboveOD > 0 {
			anyAboveOD = true
		}
		if sum.FracAbove4xOD > 0 {
			anyAbove4x = true
		}
		if sum.FracAbove4xOD > sum.FracAboveOD {
			t.Errorf("%s: impossible spike fractions", id)
		}
	}
	if !anyAboveOD {
		t.Error("no market ever exceeded on-demand price: spikes missing")
	}
	if !anyAbove4x {
		t.Error("no market ever exceeded the 4x bid cap: tail too thin")
	}
}

// TestCalibrationRegionalVolatility checks the Fig. 10 property: us-east
// markets are more variable than eu-west.
func TestCalibrationRegionalVolatility(t *testing.T) {
	cfg := DefaultConfig(9)
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avgStd := func(r Region) float64 {
		var sum float64
		types := s.TypesIn(r)
		for _, ty := range types {
			tr := s.Trace(ID{Region: r, Type: ty})
			sum += StdDev(tr) / s.OnDemand(ID{Region: r, Type: ty})
		}
		return sum / float64(len(types))
	}
	east := (avgStd("us-east-1a") + avgStd("us-east-1b")) / 2
	eu := avgStd("eu-west-1a")
	if east <= eu {
		t.Errorf("us-east normalized stddev (%.3f) should exceed eu-west (%.3f)", east, eu)
	}
}

// TestCalibrationLowCorrelation checks the Fig. 8(b)/9(b) property: spot
// markets are only weakly correlated, within and across regions.
func TestCalibrationLowCorrelation(t *testing.T) {
	cfg := DefaultConfig(13)
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Regions() {
		var ids []ID
		for _, ty := range s.TypesIn(r) {
			ids = append(ids, ID{Region: r, Type: ty})
		}
		c := PairwiseAvgCorrelation(s, ids)
		if c < -0.2 || c > 0.6 {
			t.Errorf("region %s intra correlation %.3f outside weak band", r, c)
		}
	}
	c := CrossRegionCorrelation(s, "us-east-1a", "eu-west-1a")
	if c < -0.2 || c > 0.5 {
		t.Errorf("cross-region correlation %.3f outside weak band", c)
	}
}

func TestPriceAtConsistentWithSample(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.Horizon = 2 * sim.Day
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Trace(s.IDs()[0])
	f := func(x uint16) bool {
		tt := float64(x) / 65535 * tr.End()
		p := tr.PriceAt(tt)
		return p > 0 && p >= tr.Min() && p <= tr.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogLookups(t *testing.T) {
	if _, ok := FindType(DefaultTypes(), "small"); !ok {
		t.Fatal("small missing from catalog")
	}
	if _, ok := FindType(DefaultTypes(), "nope"); ok {
		t.Fatal("phantom type found")
	}
	if _, ok := FindRegion(DefaultRegions(), "us-east-1a"); !ok {
		t.Fatal("us-east-1a missing")
	}
	if _, ok := FindRegion(DefaultRegions(), "mars-1a"); ok {
		t.Fatal("phantom region found")
	}
	rs, _ := FindRegion(DefaultRegions(), "eu-west-1a")
	ts, _ := FindType(DefaultTypes(), "small")
	if got := OnDemandPrice(rs, ts); math.Abs(got-0.06*1.08) > 1e-12 {
		t.Fatalf("OnDemandPrice = %v", got)
	}
}

func TestCorrelationSelfIsOne(t *testing.T) {
	cfg := DefaultConfig(19)
	cfg.Horizon = 2 * sim.Day
	s, _ := Generate(cfg)
	tr := s.Trace(s.IDs()[0])
	if r := Correlation(tr, tr); math.Abs(r-1) > 1e-9 {
		t.Fatalf("self correlation = %v", r)
	}
}
