package stats

import (
	"math"
	"math/rand"
	"testing"
)

// expand replicates each value proportionally to its (integer) weight so a
// plain unweighted computation can serve as the reference.
func expand(vals []float64, weights []int) []float64 {
	var out []float64
	for i, v := range vals {
		for k := 0; k < weights[i]; k++ {
			out = append(out, v)
		}
	}
	return out
}

func TestWeightedMomentsMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		weights := make([]int, n)
		var m WeightedMoments
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
			weights[i] = 1 + rng.Intn(5)
			m.Add(vals[i], float64(weights[i]))
		}
		flat := expand(vals, weights)
		var sum float64
		for _, v := range flat {
			sum += v
		}
		mean := sum / float64(len(flat))
		var ss float64
		for _, v := range flat {
			ss += (v - mean) * (v - mean)
		}
		std := math.Sqrt(ss / float64(len(flat)))
		if math.Abs(m.PopStd()-std) > 1e-9*(1+std) {
			t.Fatalf("trial %d: std %v, want %v", trial, m.PopStd(), std)
		}
	}
}

func TestWeightedPairMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(50)
		as := make([]float64, n)
		bs := make([]float64, n)
		weights := make([]int, n)
		var p WeightedPair
		for i := range as {
			as[i] = rng.NormFloat64()
			bs[i] = 0.5*as[i] + rng.NormFloat64() // correlated but noisy
			weights[i] = 1 + rng.Intn(5)
			p.Add(as[i], bs[i], float64(weights[i]))
		}
		fa := expand(as, weights)
		fb := expand(bs, weights)
		m := float64(len(fa))
		var sa, sb float64
		for i := range fa {
			sa += fa[i]
			sb += fb[i]
		}
		ma, mb := sa/m, sb/m
		var saa, sbb, sab float64
		for i := range fa {
			saa += (fa[i] - ma) * (fa[i] - ma)
			sbb += (fb[i] - mb) * (fb[i] - mb)
			sab += (fa[i] - ma) * (fb[i] - mb)
		}
		want := 0.0
		if saa > 0 && sbb > 0 {
			want = sab / math.Sqrt(saa*sbb)
		}
		if math.Abs(p.Pearson()-want) > 1e-9 {
			t.Fatalf("trial %d: pearson %v, want %v", trial, p.Pearson(), want)
		}
	}
}

func TestWeightedDegenerate(t *testing.T) {
	var m WeightedMoments
	if m.PopStd() != 0 {
		t.Fatal("empty moments not zero")
	}
	m.Add(3, 5)
	if m.PopStd() != 0 {
		t.Fatalf("single value: std %v", m.PopStd())
	}
	var p WeightedPair
	if p.Pearson() != 0 {
		t.Fatal("empty pair correlation not zero")
	}
	p.Add(1, 2, 4)
	p.Add(1, 5, 2) // a constant: zero variance on one side
	if p.Pearson() != 0 {
		t.Fatal("constant-side correlation not zero")
	}
}
