package market

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spothost/internal/sim"
)

// Sample evaluates the trace on a uniform grid [start, end) with the given
// step and returns the sampled prices. The statistics of Fig. 8b, 9b and 10
// are computed in closed form (see analysis.go); Sample is the slow-path
// reference the closed-form and cursor tests compare against.
func (tr *Trace) Sample(start, end sim.Time, step sim.Duration) []float64 {
	if step <= 0 || end <= start {
		return nil
	}
	n := int((end - start) / step)
	out := make([]float64, 0, n)
	ts := tr.times
	i := sort.Search(len(ts), func(j int) bool { return ts[j] > start }) - 1
	if i < 0 {
		i = 0 // grid points before the first step clamp to the first price
	}
	for t := start; t < end; t += step {
		for i+1 < len(ts) && ts[i+1] <= t {
			i++
		}
		out = append(out, tr.prices[i])
	}
	return out
}

// gridStd is the old sampling-based standard deviation: sample the trace on
// a uniform grid and take the population std of the samples. Kept here as
// the slow-path reference the closed-form segment statistics must agree
// with (exactly, in the limit of a fine grid).
func gridStd(tr *Trace, step sim.Duration) float64 {
	xs := tr.Sample(0, tr.End(), step)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// gridCorrelation is the old sampling-based Pearson correlation over the
// common span of two traces.
func gridCorrelation(a, b *Trace, step sim.Duration) float64 {
	end := a.End()
	if b.End() < end {
		end = b.End()
	}
	as := a.Sample(0, end, step)
	bs := b.Sample(0, end, step)
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	var sa, sb float64
	for i := 0; i < n; i++ {
		sa += as[i]
		sb += bs[i]
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var saa, sbb, sab float64
	for i := 0; i < n; i++ {
		da, db := as[i]-ma, bs[i]-mb
		saa += da * da
		sbb += db * db
		sab += da * db
	}
	// Guard with a relative epsilon: a constant series can pick up tiny
	// nonzero variance from summation rounding, which would correlate as
	// pure noise (±1).
	if saa <= 1e-18*float64(n)*ma*ma || sbb <= 1e-18*float64(n)*mb*mb {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// Tolerances for the closed-form vs. sampled comparison: correlations are
// dimensionless on [-1, 1], so they are compared on an absolute scale
// (0.01 — the same tolerance EXPERIMENTS.md documents for the Fig. 8b/9b
// columns); standard deviations are compared at 1% relative.
const (
	corrTol = 0.01
	stdTol  = 0.01
)

func TestStdDevMatchesFineGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng)
		got := StdDev(tr)
		want := gridStd(tr, 2)
		if math.Abs(got-want) > stdTol*(want+1e-6) {
			t.Fatalf("trial %d: closed-form std %v vs fine-grid %v", trial, got, want)
		}
	}
}

func TestCorrelationMatchesFineGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		// Correlate a trace with a noisy copy of itself so the reference
		// correlation is well away from zero.
		a := randomTrace(rng)
		pts := make([]Point, 0, a.Len())
		for i, at := range a.Times() {
			pts = append(pts, Point{T: at, Price: a.Prices()[i] * (0.5 + rng.Float64())})
		}
		b, err := NewTrace(a.id, pts, a.End())
		if err != nil {
			t.Fatal(err)
		}
		got := Correlation(a, b)
		want := gridCorrelation(a, b, 2)
		if math.Abs(got-want) > corrTol {
			t.Fatalf("trial %d: closed-form corr %v vs fine-grid %v", trial, got, want)
		}
	}
}

func TestCorrelationIndependentTraces(t *testing.T) {
	// Fully independent traces: closed-form and fine grid must agree that
	// the correlation is small, and with each other.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		a, b := randomTrace(rng), randomTrace(rng)
		got := Correlation(a, b)
		want := gridCorrelation(a, b, 2)
		if math.Abs(got-want) > corrTol {
			t.Fatalf("trial %d: closed-form corr %v vs fine-grid %v", trial, got, want)
		}
	}
}

func TestTimeWeightedMeanMatchesFineGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng)
		got := tr.TimeWeightedMean(0, tr.End())
		xs := tr.Sample(0, tr.End(), 2)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		want := sum / float64(len(xs))
		if math.Abs(got-want) > stdTol*(want+1e-6) {
			t.Fatalf("trial %d: closed-form mean %v vs fine-grid %v", trial, got, want)
		}
	}
}
