package market

import (
	"spothost/internal/sim"
	"spothost/internal/stats"
)

// Correlation returns the exact time-weighted Pearson correlation between
// two traces over their shared horizon [0, min end), computed by a
// two-pointer merge over the piecewise-constant segments — the statistic
// behind Fig. 8(b) and Fig. 9(b), without discretization error.
func Correlation(a, b *Trace) float64 {
	end := a.End()
	if b.End() < end {
		end = b.End()
	}
	if end <= 0 {
		return 0
	}
	at, bt := a.times, b.times
	ia, ib := 0, 0 // index of the segment in effect at t (clamped to 0)
	t := sim.Time(0)
	for ia+1 < len(at) && at[ia+1] <= t {
		ia++
	}
	for ib+1 < len(bt) && bt[ib+1] <= t {
		ib++
	}
	pa, pb := a.prices[ia], b.prices[ib]
	var pair stats.WeightedPair
	for t < end {
		nt := end
		if ia+1 < len(at) && at[ia+1] < nt {
			nt = at[ia+1]
		}
		if ib+1 < len(bt) && bt[ib+1] < nt {
			nt = bt[ib+1]
		}
		pair.Add(pa, pb, nt-t)
		t = nt
		for ia+1 < len(at) && at[ia+1] <= t {
			ia++
			pa = a.prices[ia]
		}
		for ib+1 < len(bt) && bt[ib+1] <= t {
			ib++
			pb = b.prices[ib]
		}
	}
	return pair.Pearson()
}

// StdDev returns the exact time-weighted standard deviation of a trace's
// price over [0, End) — the per-market variability statistic of Fig. 10,
// computed in closed form over the trace segments.
func StdDev(tr *Trace) float64 {
	end := tr.End()
	if end <= 0 {
		return 0
	}
	ts := tr.times
	var m stats.WeightedMoments
	t := sim.Time(0)
	i := 0
	for i+1 < len(ts) && ts[i+1] <= t {
		i++
	}
	for t < end {
		nt := end
		if i+1 < len(ts) && ts[i+1] < nt {
			nt = ts[i+1]
		}
		m.Add(tr.prices[i], nt-t)
		t = nt
		for i+1 < len(ts) && ts[i+1] <= t {
			i++
		}
	}
	return m.PopStd()
}

// PairwiseAvgCorrelation returns the mean Pearson correlation over all
// unordered pairs of the given markets' traces. Used for the per-region
// bars of Fig. 8(b).
func PairwiseAvgCorrelation(s *Set, ids []ID) float64 {
	var sum float64
	n := 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			sum += Correlation(s.Trace(ids[i]), s.Trace(ids[j]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CrossRegionCorrelation returns the mean correlation between same-type
// markets across two regions — the statistic of Fig. 9(b).
func CrossRegionCorrelation(s *Set, a, b Region) float64 {
	var sum float64
	n := 0
	for _, t := range s.TypesIn(a) {
		ta := s.Trace(ID{Region: a, Type: t})
		tb := s.Trace(ID{Region: b, Type: t})
		if ta == nil || tb == nil {
			continue
		}
		sum += Correlation(ta, tb)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TraceSummary captures the headline statistics of one market's trace for
// reporting (Fig. 1 is rendered from these plus the raw series).
type TraceSummary struct {
	Market        ID
	OnDemand      float64
	Mean          float64 // time-weighted mean price
	Min, Max      float64
	StdDev        float64
	FracAboveOD   float64 // fraction of time price > on-demand
	FracAbove4xOD float64 // fraction of time price > 4x on-demand (bid cap)
	Steps         int
}

// Summarize computes a TraceSummary for one market of the set.
func Summarize(s *Set, id ID) TraceSummary {
	tr := s.Trace(id)
	od := s.OnDemand(id)
	return TraceSummary{
		Market:        id,
		OnDemand:      od,
		Mean:          tr.TimeWeightedMean(0, tr.End()),
		Min:           tr.Min(),
		Max:           tr.Max(),
		StdDev:        StdDev(tr),
		FracAboveOD:   tr.FractionAbove(od, 0, tr.End()),
		FracAbove4xOD: tr.FractionAbove(4*od, 0, tr.End()),
		Steps:         tr.Len(),
	}
}
