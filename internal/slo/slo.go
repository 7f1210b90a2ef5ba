// Package slo evaluates availability objectives over downtime episode
// logs: per-window compliance against N-nines targets, error-budget burn,
// and episode-length distributions. The paper's bar — "a widely-accepted
// industry requirement ... at least four nines (99.99%) of availability
// ... roughly 4.3 minutes of downtime per month" — is the FourNines
// target here.
package slo

import (
	"fmt"
	"sort"

	"spothost/internal/metrics"
	"spothost/internal/sim"
)

// Target is an availability objective as a fraction (0.9999 = four nines).
type Target float64

// FourNines is the paper's always-on service requirement.
const FourNines Target = 0.9999

// String renders the target ("99.99%").
func (t Target) String() string { return fmt.Sprintf("%g%%", float64(t)*100) }

// MaxDowntime returns the downtime budget the target allows in a window.
func (t Target) MaxDowntime(window sim.Duration) sim.Duration {
	return (1 - float64(t)) * window
}

// MonthlyBudget returns the budget over a 30-day month (the paper's "4.3
// minutes per month" for four nines).
func (t Target) MonthlyBudget() sim.Duration { return t.MaxDowntime(30 * sim.Day) }

// Tracker evaluates episodes against targets. Build with FromLog or by
// Add-ing episodes in order.
type Tracker struct {
	episodes []metrics.Interval
}

// FromLog builds a tracker from a metrics downtime log.
func FromLog(log []metrics.Interval) *Tracker {
	t := &Tracker{}
	for _, iv := range log {
		t.Add(iv.Start, iv.End)
	}
	return t
}

// Add records one downtime episode. Episodes with non-positive length are
// ignored; out-of-order starts are rejected to keep queries correct.
func (t *Tracker) Add(start, end sim.Time) {
	if end <= start {
		return
	}
	if n := len(t.episodes); n > 0 && start < t.episodes[n-1].End {
		// Overlapping/unsorted input: merge into the previous episode to
		// stay consistent rather than silently double-counting.
		if end > t.episodes[n-1].End {
			t.episodes[n-1].End = end
		}
		return
	}
	t.episodes = append(t.episodes, metrics.Interval{Start: start, End: end})
}

// Episodes returns the number of recorded episodes.
func (t *Tracker) Episodes() int { return len(t.episodes) }

// DowntimeIn returns total downtime intersecting the window [w0, w1).
func (t *Tracker) DowntimeIn(w0, w1 sim.Time) sim.Duration {
	if w1 <= w0 {
		return 0
	}
	total := sim.Duration(0)
	for _, ep := range t.episodes {
		lo, hi := ep.Start, ep.End
		if lo < w0 {
			lo = w0
		}
		if hi > w1 {
			hi = w1
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// Availability returns the availability fraction over [w0, w1).
func (t *Tracker) Availability(w0, w1 sim.Time) float64 {
	if w1 <= w0 {
		return 1
	}
	return 1 - float64(t.DowntimeIn(w0, w1))/float64(w1-w0)
}

// Compliant reports whether the window meets the target.
func (t *Tracker) Compliant(target Target, w0, w1 sim.Time) bool {
	return t.Availability(w0, w1) >= float64(target)
}

// BudgetBurn returns the fraction of the window's error budget consumed
// (1.0 = exactly at the target; > 1 = violated).
func (t *Tracker) BudgetBurn(target Target, w0, w1 sim.Time) float64 {
	budget := target.MaxDowntime(w1 - w0)
	if budget <= 0 {
		if t.DowntimeIn(w0, w1) > 0 {
			return 2 // any downtime busts a zero budget
		}
		return 0
	}
	return float64(t.DowntimeIn(w0, w1)) / float64(budget)
}

// WindowReport is one fixed window's compliance summary.
type WindowReport struct {
	Start        sim.Time
	End          sim.Time
	Downtime     sim.Duration
	Availability float64
	Compliant    bool
	BudgetBurn   float64
}

// Windows evaluates consecutive fixed windows of the given length over
// [0, horizon) — e.g. 30-day months.
func (t *Tracker) Windows(target Target, window, horizon sim.Duration) []WindowReport {
	if window <= 0 || horizon <= 0 {
		return nil
	}
	var out []WindowReport
	for w0 := sim.Time(0); w0 < horizon; w0 += window {
		w1 := w0 + window
		if w1 > horizon {
			w1 = horizon
		}
		out = append(out, WindowReport{
			Start:        w0,
			End:          w1,
			Downtime:     t.DowntimeIn(w0, w1),
			Availability: t.Availability(w0, w1),
			Compliant:    t.Compliant(target, w0, w1),
			BudgetBurn:   t.BudgetBurn(target, w0, w1),
		})
	}
	return out
}

// Distribution summarizes episode lengths.
type Distribution struct {
	Count int
	Total sim.Duration
	Mean  sim.Duration
	P50   sim.Duration
	P95   sim.Duration
	Max   sim.Duration
}

// EpisodeDistribution returns the distribution of episode lengths.
func (t *Tracker) EpisodeDistribution() Distribution {
	if len(t.episodes) == 0 {
		return Distribution{}
	}
	lens := make([]float64, len(t.episodes))
	total := 0.0
	for i, ep := range t.episodes {
		lens[i] = float64(ep.Duration())
		total += lens[i]
	}
	sort.Float64s(lens)
	pick := func(p float64) sim.Duration {
		idx := int(p * float64(len(lens)-1))
		return lens[idx]
	}
	return Distribution{
		Count: len(lens),
		Total: total,
		Mean:  total / float64(len(lens)),
		P50:   pick(0.5),
		P95:   pick(0.95),
		Max:   lens[len(lens)-1],
	}
}
