package fleet

import (
	"math"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// LossEvent is one cluster of simultaneous revocations: Lost replicas
// terminated at the same virtual instant (a price spike revoking several
// replicas in one market lands them on the same grace deadline).
type LossEvent struct {
	At   sim.Time
	Lost int
}

// OccupancyPoint is a snapshot of where the fleet's serving replicas ran.
type OccupancyPoint struct {
	At       sim.Time
	Spot     map[market.ID]int
	OnDemand int
}

// MarketUsage is time-integrated occupancy of one market.
type MarketUsage struct {
	SpotSeconds     float64
	OnDemandSeconds float64
}

// Report is the outcome of one fleet run.
type Report struct {
	Strategy string
	Seed     int64
	Horizon  sim.Duration

	// TargetReplicaSeconds integrates the autoscaling target over the
	// run; ServedReplicaSeconds integrates min(alive, target).
	TargetReplicaSeconds float64
	ServedReplicaSeconds float64
	PeakTarget           int

	// Cost is the total billed; BaselineCost is serving the full target
	// from the cheapest on-demand market, billed continuously.
	Cost         float64
	BaselineCost float64

	SpotSeconds     float64
	OnDemandSeconds float64

	Launches            int
	SpotLaunches        int
	OnDemandFallbacks   int
	ReverseReplacements int
	// Downsizes counts make-before-break swaps of an oversized spot box
	// for a smaller one after a scale-down stranded its surplus units.
	// Rebalances counts make-before-break migrations of a spot replica
	// onto a market undercutting it by the hysteresis margin. Both are
	// always zero without a mixed-size catalog.
	Downsizes    int
	Rebalances   int
	ReplicasLost int
	NeverGranted int
	ScaleDowns   int

	// LossEvents clusters revocations by termination instant, in time
	// order. Occupancy is an hourly placement series; MarketSeconds the
	// time-integrated per-market occupancy. Average drops all three.
	LossEvents    []LossEvent
	Occupancy     []OccupancyPoint
	MarketSeconds map[market.ID]MarketUsage
}

// NormalizedCost returns cost as a fraction of the all-on-demand
// baseline; below 1.0 means the fleet beat always-on-demand.
func (r Report) NormalizedCost() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return r.Cost / r.BaselineCost
}

// CapacityShortfall returns the capacity-weighted unavailability:
// 1 - served/target replica-seconds. The fleet analogue of the paper's
// availability metric — a mass revocation in one market shows up as a
// partial shortfall, not binary downtime.
func (r Report) CapacityShortfall() float64 {
	if r.TargetReplicaSeconds == 0 {
		return 0
	}
	return 1 - r.ServedReplicaSeconds/r.TargetReplicaSeconds
}

// MaxSimultaneousLoss returns the largest cluster of replicas revoked at
// one instant — the blast radius diversification exists to cap.
func (r Report) MaxSimultaneousLoss() int {
	max := 0
	for _, e := range r.LossEvents {
		if e.Lost > max {
			max = e.Lost
		}
	}
	return max
}

// PooledLossVariance buckets each run's lost replicas into fixed windows
// over its horizon (zero buckets included) and returns the variance of the
// per-window counts pooled across runs. Concentrated strategies lose many
// replicas in few windows — high variance; diversified ones spread smaller
// losses — low variance. It is the cross-seed statistic the Fleet
// experiment and the diversification property test report.
func PooledLossVariance(reports []Report, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	var counts []float64
	for _, r := range reports {
		n := int(math.Ceil(float64(r.Horizon) / float64(window)))
		per := make([]float64, n)
		for _, e := range r.LossEvents {
			i := int(float64(e.At) / float64(window))
			if i < 0 {
				i = 0
			}
			if i >= n {
				i = n - 1
			}
			per[i] += float64(e.Lost)
		}
		counts = append(counts, per...)
	}
	if len(counts) == 0 {
		return 0
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	var v float64
	for _, c := range counts {
		d := c - mean
		v += d * d
	}
	return v / float64(len(counts))
}

// Average aggregates per-seed reports: scalar fields are averaged
// (counters become means rounded to nearest), and the per-seed series
// (LossEvents, Occupancy, MarketSeconds) are dropped, mirroring
// metrics.Average. MaxSimultaneousLoss-style statistics must be computed
// from the per-seed reports before averaging.
func Average(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	n := float64(len(reports))
	avg := Report{Strategy: reports[0].Strategy, Horizon: reports[0].Horizon}
	var launches, spotLaunches, odFallbacks, reverses, downsizes, rebalances, lost, never, scaleDowns, peak float64
	for _, r := range reports {
		avg.TargetReplicaSeconds += r.TargetReplicaSeconds / n
		avg.ServedReplicaSeconds += r.ServedReplicaSeconds / n
		avg.Cost += r.Cost / n
		avg.BaselineCost += r.BaselineCost / n
		avg.SpotSeconds += r.SpotSeconds / n
		avg.OnDemandSeconds += r.OnDemandSeconds / n
		launches += float64(r.Launches) / n
		spotLaunches += float64(r.SpotLaunches) / n
		odFallbacks += float64(r.OnDemandFallbacks) / n
		reverses += float64(r.ReverseReplacements) / n
		downsizes += float64(r.Downsizes) / n
		rebalances += float64(r.Rebalances) / n
		lost += float64(r.ReplicasLost) / n
		never += float64(r.NeverGranted) / n
		scaleDowns += float64(r.ScaleDowns) / n
		peak += float64(r.PeakTarget) / n
	}
	round := func(v float64) int { return int(math.Round(v)) }
	avg.Launches = round(launches)
	avg.SpotLaunches = round(spotLaunches)
	avg.OnDemandFallbacks = round(odFallbacks)
	avg.ReverseReplacements = round(reverses)
	avg.Downsizes = round(downsizes)
	avg.Rebalances = round(rebalances)
	avg.ReplicasLost = round(lost)
	avg.NeverGranted = round(never)
	avg.ScaleDowns = round(scaleDowns)
	avg.PeakTarget = round(peak)
	return avg
}
