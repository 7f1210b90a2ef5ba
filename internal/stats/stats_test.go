package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", w.Mean())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("empty accumulator should be all zero")
	}
	w.Add(42)
	if w.N() != 1 || w.Mean() != 42 {
		t.Fatalf("single sample: %+v", w)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("Mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil || !almost(got, c.want, 1e-9) {
			t.Errorf("P%v = %v (err %v), want %v", c.p, got, err, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatal("empty percentile should error")
	}
	got, _ := Percentile([]float64{7}, 99)
	if got != 7 {
		t.Fatalf("single-element percentile = %v", got)
	}
	// Out-of-range p clamps.
	got, _ = Percentile(xs, -5)
	if got != 15 {
		t.Fatalf("clamped p<0 = %v", got)
	}
	got, _ = Percentile(xs, 200)
	if got != 50 {
		t.Fatalf("clamped p>100 = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Fatalf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	if h.Bins[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d", h.Bins[0])
	}
	if h.Bins[1] != 1 { // 2
		t.Fatalf("bin1 = %d", h.Bins[1])
	}
	if h.Bins[4] != 1 { // 9.99
		t.Fatalf("bin4 = %d", h.Bins[4])
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestHistogramConservation(t *testing.T) {
	h := NewHistogram(-3, 3, 12)
	rng := rand.New(rand.NewSource(2))
	const n = 10000
	for i := 0; i < n; i++ {
		h.Add(rng.NormFloat64())
	}
	total := h.Underflow + h.Overflow
	for _, b := range h.Bins {
		total += b
	}
	if total != n {
		t.Fatalf("samples lost: %d != %d", total, n)
	}
}

func TestHistogramOverflowAccessors(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, -2, 3, 5, 12, 15, 20} {
		h.Add(x)
	}
	if h.Underflow != 2 || h.Overflow != 3 {
		t.Fatalf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	if !almost(h.Sum(), 52, 1e-12) {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 1, 3, 5, 12} {
		h.Add(x)
	}
	// underflow=1, bins = [1,1,1,0,0], overflow=1
	want := []int{2, 3, 4, 4, 4}
	for i, w := range want {
		if got := h.Cumulative(i); got != w {
			t.Fatalf("cumulative(%d) = %d, want %d", i, got, w)
		}
	}
	if ub := h.BucketUpperBound(0); !almost(ub, 2, 1e-12) {
		t.Fatalf("upper bound 0 = %v", ub)
	}
	if ub := h.BucketUpperBound(4); !almost(ub, 10, 1e-12) {
		t.Fatalf("upper bound 4 = %v", ub)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 1, 3} {
		a.Add(x)
	}
	for _, x := range []float64{5, 12} {
		b.Add(x)
	}
	a.Merge(b)
	if a.Count() != 5 || a.Underflow != 1 || a.Overflow != 1 {
		t.Fatalf("merged count=%d under=%d over=%d", a.Count(), a.Underflow, a.Overflow)
	}
	if !almost(a.Sum(), 20, 1e-12) {
		t.Fatalf("merged sum = %v", a.Sum())
	}
	a.Merge(nil) // no-op
	if a.Count() != 5 {
		t.Fatalf("nil merge changed count")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	a.Merge(NewHistogram(0, 10, 4))
}
