// Package metrics provides the accounting primitives and the run report
// the spothost scheduler produces: downtime interval tracking, migration
// counters, placement time shares, and cost normalization against the
// on-demand-only baseline.
package metrics

import (
	"fmt"
	"strings"

	"spothost/internal/sim"
)

// Interval is one closed downtime episode.
type Interval struct {
	Start sim.Time
	End   sim.Time
}

// Duration returns the episode length.
func (iv Interval) Duration() sim.Duration { return iv.End - iv.Start }

// DowntimeTracker accumulates service downtime as mark-down/mark-up
// intervals. It also accumulates degraded-mode time (lazy-restore fault-in
// periods) separately, and keeps the episode log for SLO analysis.
type DowntimeTracker struct {
	down        bool
	downSince   sim.Time
	total       sim.Duration
	episodes    int
	degraded    sim.Duration
	longestDown sim.Duration
	log         []Interval
}

// MarkDown records the service going down at t. Marking an already-down
// service is a no-op (downtime causes can overlap).
func (d *DowntimeTracker) MarkDown(t sim.Time) {
	if d.down {
		return
	}
	d.down = true
	d.downSince = t
	d.episodes++
}

// MarkUp records the service coming back at t.
func (d *DowntimeTracker) MarkUp(t sim.Time) {
	if !d.down {
		return
	}
	d.down = false
	ep := t - d.downSince
	d.total += ep
	if ep > d.longestDown {
		d.longestDown = ep
	}
	d.log = append(d.log, Interval{Start: d.downSince, End: t})
}

// Log returns the closed downtime episodes in order. Callers must not
// modify the result.
func (d *DowntimeTracker) Log() []Interval { return d.log }

// AddDegraded records dt seconds of degraded (slower, but available)
// operation.
func (d *DowntimeTracker) AddDegraded(dt sim.Duration) {
	if dt > 0 {
		d.degraded += dt
	}
}

// Down reports whether the service is currently marked down.
func (d *DowntimeTracker) Down() bool { return d.down }

// Total returns accumulated downtime as of time t (including a currently
// open episode).
func (d *DowntimeTracker) Total(t sim.Time) sim.Duration {
	if d.down && t > d.downSince {
		return d.total + (t - d.downSince)
	}
	return d.total
}

// Episodes returns the number of downtime episodes started.
func (d *DowntimeTracker) Episodes() int { return d.episodes }

// Longest returns the longest closed downtime episode.
func (d *DowntimeTracker) Longest() sim.Duration { return d.longestDown }

// Degraded returns accumulated degraded-mode time.
func (d *DowntimeTracker) Degraded() sim.Duration { return d.degraded }

// MigrationCounts tallies the scheduler's migrations by class.
type MigrationCounts struct {
	// Forced migrations follow provider revocations.
	Forced int
	// Planned migrations voluntarily move spot->on-demand or spot->spot.
	Planned int
	// Reverse migrations move on-demand back to spot.
	Reverse int
	// CrossRegion counts migrations that changed region (subset of the
	// above).
	CrossRegion int
	// MemoryLost counts migrations that could not preserve memory state.
	MemoryLost int
}

// Total returns all migrations.
func (m MigrationCounts) Total() int { return m.Forced + m.Planned + m.Reverse }

// Report is the outcome of one hosting run.
type Report struct {
	Policy    string
	Mechanism string
	Horizon   sim.Duration // measured from service start
	VMs       int

	// Costs in dollars over the horizon.
	Cost         float64
	BaselineCost float64 // same service on on-demand servers only

	// Placement time shares in VM-seconds.
	SpotSeconds     float64
	OnDemandSeconds float64

	DowntimeSeconds float64
	DegradedSeconds float64
	DownEpisodes    int
	LongestDowntime sim.Duration

	Migrations MigrationCounts

	// CheckpointGB is the volume of background checkpoint writes issued
	// by the Yank-style daemon over the run (all VMs).
	CheckpointGB float64

	// DowntimeLog holds the closed downtime episodes of a single run for
	// SLO analysis (see package slo). Average leaves it nil: episode logs
	// from different seeds are not comparable.
	DowntimeLog []Interval
}

// NormalizedCost returns cost as a fraction of the on-demand baseline
// (the paper's "Normalized Cost (%)" divided by 100).
func (r Report) NormalizedCost() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return r.Cost / r.BaselineCost
}

// Unavailability returns the fraction of VM-time the service was down
// (the paper's "Unavailability (%)" divided by 100).
func (r Report) Unavailability() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return r.DowntimeSeconds / float64(r.Horizon)
}

// ForcedPerHour returns forced migrations per hour of horizon.
func (r Report) ForcedPerHour() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return float64(r.Migrations.Forced) / (float64(r.Horizon) / sim.Hour)
}

// PlannedReversePerHour returns voluntary migrations per hour of horizon.
func (r Report) PlannedReversePerHour() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return float64(r.Migrations.Planned+r.Migrations.Reverse) / (float64(r.Horizon) / sim.Hour)
}

// SpotFraction returns the fraction of placed time spent on spot servers.
func (r Report) SpotFraction() float64 {
	tot := r.SpotSeconds + r.OnDemandSeconds
	if tot == 0 {
		return 0
	}
	return r.SpotSeconds / tot
}

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s mechanism=%s horizon=%.1fd vms=%d\n",
		r.Policy, r.Mechanism, float64(r.Horizon)/sim.Day, r.VMs)
	fmt.Fprintf(&b, "  cost=$%.2f baseline=$%.2f normalized=%.1f%%\n",
		r.Cost, r.BaselineCost, 100*r.NormalizedCost())
	fmt.Fprintf(&b, "  unavailability=%.4f%% downtime=%.0fs episodes=%d longest=%.0fs degraded=%.0fs\n",
		100*r.Unavailability(), r.DowntimeSeconds, r.DownEpisodes, float64(r.LongestDowntime), r.DegradedSeconds)
	fmt.Fprintf(&b, "  migrations: forced=%d planned=%d reverse=%d xregion=%d memlost=%d (%.4f forced/hr, %.4f voluntary/hr)\n",
		r.Migrations.Forced, r.Migrations.Planned, r.Migrations.Reverse,
		r.Migrations.CrossRegion, r.Migrations.MemoryLost, r.ForcedPerHour(), r.PlannedReversePerHour())
	fmt.Fprintf(&b, "  placement: %.1f%% spot", 100*r.SpotFraction())
	return b.String()
}

// Average combines reports from repeated runs (different seeds) of the
// same configuration into one mean report: the Mean of an Accum fed every
// report in order. It panics on an empty input because that is always a
// harness bug.
func Average(rs []Report) Report {
	if len(rs) == 0 {
		panic("metrics: Average of no reports")
	}
	var a Accum
	for _, r := range rs {
		a.Add(r)
	}
	return a.Mean()
}

// Accum is a streaming mean of reports: Add them one at a time and Mean
// returns the cross-run average without ever holding more than one
// report. Continuous quantities are averaged, counts are averaged and
// rounded, LongestDowntime is the maximum, and the non-averaged fields
// (policy and mechanism labels, VM count) come from the first report.
// Per-run downtime logs are dropped: they are not averageable. The zero
// value is an empty accumulator.
type Accum struct {
	n     int
	first Report

	ckpt, cost, base, spotS, odS, down, degr, horizon float64
	forced, planned, reverse, xr, lost, eps           float64
	longest                                           sim.Duration
}

// Add folds one run's report into the mean.
func (a *Accum) Add(r Report) {
	if a.n == 0 {
		a.first = r
		a.first.DowntimeLog = nil
	}
	a.n++
	a.ckpt += r.CheckpointGB
	a.cost += r.Cost
	a.base += r.BaselineCost
	a.spotS += r.SpotSeconds
	a.odS += r.OnDemandSeconds
	a.down += r.DowntimeSeconds
	a.degr += r.DegradedSeconds
	a.horizon += float64(r.Horizon)
	a.forced += float64(r.Migrations.Forced)
	a.planned += float64(r.Migrations.Planned)
	a.reverse += float64(r.Migrations.Reverse)
	a.xr += float64(r.Migrations.CrossRegion)
	a.lost += float64(r.Migrations.MemoryLost)
	a.eps += float64(r.DownEpisodes)
	if r.LongestDowntime > a.longest {
		a.longest = r.LongestDowntime
	}
}

// Mean returns the mean of the reports added so far, the zero Report when
// there are none.
func (a *Accum) Mean() Report {
	if a.n == 0 {
		return Report{}
	}
	out := a.first
	n := float64(a.n)
	out.CheckpointGB = a.ckpt / n
	out.Cost = a.cost / n
	out.BaselineCost = a.base / n
	out.SpotSeconds = a.spotS / n
	out.OnDemandSeconds = a.odS / n
	out.DowntimeSeconds = a.down / n
	out.DegradedSeconds = a.degr / n
	out.Horizon = a.horizon / n
	out.DownEpisodes = int(a.eps/n + 0.5)
	out.LongestDowntime = a.longest
	out.Migrations = MigrationCounts{
		Forced:      int(a.forced/n + 0.5),
		Planned:     int(a.planned/n + 0.5),
		Reverse:     int(a.reverse/n + 0.5),
		CrossRegion: int(a.xr/n + 0.5),
		MemoryLost:  int(a.lost/n + 0.5),
	}
	return out
}
