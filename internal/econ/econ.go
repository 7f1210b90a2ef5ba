// Package econ turns a hosting run into business terms — the calculation
// behind the paper's motivation ("a large e-tailer ... could lose a
// significant amount of revenue if their website is down even for a few
// minutes"): infrastructure savings versus revenue lost to downtime and
// degraded operation, and the break-even availability a spot-hosted
// service must clear for the savings to be worth it.
package econ

import (
	"fmt"

	"spothost/internal/metrics"
	"spothost/internal/sim"
)

// RevenueModel prices a service's traffic.
type RevenueModel struct {
	// RequestsPerSecond is the mean served request rate.
	RequestsPerSecond float64
	// RevenuePerRequest is the value of one served request, in dollars
	// (conversions x basket value / requests, for a shop).
	RevenuePerRequest float64
	// DegradedLossFactor is the fraction of revenue lost while the
	// service runs degraded (lazy-restore fault-in windows): users see
	// slow pages and some leave. 0 = degradation is free, 1 = as bad as
	// downtime.
	DegradedLossFactor float64
}

// Validate reports an unusable model.
func (m RevenueModel) Validate() error {
	switch {
	case m.RequestsPerSecond < 0:
		return fmt.Errorf("econ: negative request rate")
	case m.RevenuePerRequest < 0:
		return fmt.Errorf("econ: negative revenue per request")
	case m.DegradedLossFactor < 0 || m.DegradedLossFactor > 1:
		return fmt.Errorf("econ: DegradedLossFactor %v outside [0,1]", m.DegradedLossFactor)
	}
	return nil
}

// RevenuePerSecond returns the model's revenue rate.
func (m RevenueModel) RevenuePerSecond() float64 {
	return m.RequestsPerSecond * m.RevenuePerRequest
}

// Analysis is the business outcome of one hosting run.
type Analysis struct {
	// Savings is the infrastructure cost avoided versus the on-demand
	// baseline.
	Savings float64
	// LostToDowntime prices the downtime seconds.
	LostToDowntime float64
	// LostToDegradation prices the degraded-mode seconds.
	LostToDegradation float64
	// Net is Savings minus both losses: positive means spot hosting paid
	// off.
	Net float64
	// BreakEvenDowntime is how much downtime (seconds over the horizon)
	// would exactly cancel the savings; +Inf when revenue is free.
	BreakEvenDowntime sim.Duration
	// HeadroomFactor is BreakEvenDowntime / actual downtime: how many
	// times worse availability could get before spot hosting stops
	// paying. 0 when already negative-net with no downtime headroom.
	HeadroomFactor float64
}

// WorthIt reports whether spot hosting beat the baseline after revenue
// losses.
func (a Analysis) WorthIt() bool { return a.Net > 0 }

// Analyze prices a run report under the model.
func Analyze(m RevenueModel, r metrics.Report) (Analysis, error) {
	if err := m.Validate(); err != nil {
		return Analysis{}, err
	}
	rate := m.RevenuePerSecond()
	a := Analysis{
		Savings:           r.BaselineCost - r.Cost,
		LostToDowntime:    rate * r.DowntimeSeconds,
		LostToDegradation: rate * m.DegradedLossFactor * r.DegradedSeconds,
	}
	a.Net = a.Savings - a.LostToDowntime - a.LostToDegradation
	if rate > 0 {
		// Downtime that would consume all savings (ignoring degradation,
		// which scales with downtime mechanics, not linearly with it).
		a.BreakEvenDowntime = a.Savings / rate
		switch {
		case r.DowntimeSeconds > 0:
			a.HeadroomFactor = float64(a.BreakEvenDowntime) / r.DowntimeSeconds
		case a.Savings > 0:
			a.HeadroomFactor = 1e12 // effectively unlimited headroom
		}
	} else {
		a.BreakEvenDowntime = sim.Duration(1e18)
		a.HeadroomFactor = 1e12
	}
	return a, nil
}

// String renders the analysis.
func (a Analysis) String() string {
	return fmt.Sprintf(
		"savings=$%.2f lost(down)=$%.2f lost(degraded)=$%.2f net=$%.2f headroom=%.1fx worth-it=%v",
		a.Savings, a.LostToDowntime, a.LostToDegradation, a.Net, a.HeadroomFactor, a.WorthIt())
}
