package stats

import "math"

// WeightedMoments accumulates the weight-weighted first and second moments
// of a signal. For a piecewise-constant signal observed segment by segment
// with weight = segment duration, the results are the exact time-weighted
// mean and population variance — no sampling grid involved.
type WeightedMoments struct {
	W  float64 // total weight
	M1 float64 // sum of value * weight
	M2 float64 // sum of value^2 * weight
}

// Add incorporates one segment with the given value and weight.
func (m *WeightedMoments) Add(value, weight float64) {
	m.W += weight
	m.M1 += value * weight
	m.M2 += value * value * weight
}

// PopVar returns the weighted population variance, clamped at 0 against
// floating-point cancellation.
func (m *WeightedMoments) PopVar() float64 {
	if m.W == 0 {
		return 0
	}
	mean := m.M1 / m.W
	v := m.M2/m.W - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

// PopStd returns the weighted population standard deviation.
func (m *WeightedMoments) PopStd() float64 { return math.Sqrt(m.PopVar()) }

// WeightedPair accumulates weighted comoments of two signals, yielding the
// exact weighted Pearson correlation for piecewise-constant signals merged
// segment by segment.
type WeightedPair struct {
	W   float64
	MA  float64 // sum of a * weight
	MB  float64 // sum of b * weight
	MAA float64 // sum of a^2 * weight
	MBB float64 // sum of b^2 * weight
	MAB float64 // sum of a*b * weight
}

// Add incorporates one segment during which the signals held values a and b.
func (p *WeightedPair) Add(a, b, weight float64) {
	p.W += weight
	p.MA += a * weight
	p.MB += b * weight
	p.MAA += a * a * weight
	p.MBB += b * b * weight
	p.MAB += a * b * weight
}

// Pearson returns the weighted Pearson correlation coefficient, or 0 when
// either signal is constant (correlation undefined) or no weight was added.
func (p *WeightedPair) Pearson() float64 {
	if p.W == 0 {
		return 0
	}
	ma, mb := p.MA/p.W, p.MB/p.W
	va := p.MAA/p.W - ma*ma
	vb := p.MBB/p.W - mb*mb
	cov := p.MAB/p.W - ma*mb
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
