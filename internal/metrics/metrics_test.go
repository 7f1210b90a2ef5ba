package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"spothost/internal/sim"
)

func TestDowntimeTracker(t *testing.T) {
	var d DowntimeTracker
	d.MarkDown(10)
	d.MarkDown(12) // no-op: already down
	d.MarkUp(40)
	d.MarkUp(50) // no-op: already up
	d.MarkDown(100)
	d.MarkUp(110)
	if got := d.Total(200); got != 40 {
		t.Fatalf("total = %v, want 40", got)
	}
	if d.Episodes() != 2 {
		t.Fatalf("episodes = %d", d.Episodes())
	}
	if d.Longest() != 30 {
		t.Fatalf("longest = %v", d.Longest())
	}
}

func TestDowntimeTrackerOpenEpisode(t *testing.T) {
	var d DowntimeTracker
	d.MarkDown(10)
	if got := d.Total(25); got != 15 {
		t.Fatalf("open episode total = %v", got)
	}
}

func TestDegraded(t *testing.T) {
	var d DowntimeTracker
	d.AddDegraded(30)
	d.AddDegraded(-5) // ignored
	if d.Degraded() != 30 {
		t.Fatalf("degraded = %v", d.Degraded())
	}
}

func TestReportDerived(t *testing.T) {
	r := Report{
		Horizon:         100 * sim.Hour,
		Cost:            25,
		BaselineCost:    100,
		DowntimeSeconds: 36,
		SpotSeconds:     900,
		OnDemandSeconds: 100,
		Migrations:      MigrationCounts{Forced: 2, Planned: 5, Reverse: 5},
	}
	if got := r.NormalizedCost(); got != 0.25 {
		t.Fatalf("normalized = %v", got)
	}
	if got := r.Unavailability(); math.Abs(got-36.0/360000) > 1e-12 {
		t.Fatalf("unavailability = %v", got)
	}
	if got := r.ForcedPerHour(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("forced/hr = %v", got)
	}
	if got := r.PlannedReversePerHour(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("voluntary/hr = %v", got)
	}
	if got := r.SpotFraction(); got != 0.9 {
		t.Fatalf("spot fraction = %v", got)
	}
	if got := r.Migrations.Total(); got != 12 {
		t.Fatalf("total migrations = %v", got)
	}
}

func TestReportZeroGuards(t *testing.T) {
	var r Report
	if r.NormalizedCost() != 0 || r.Unavailability() != 0 ||
		r.ForcedPerHour() != 0 || r.SpotFraction() != 0 {
		t.Fatal("zero report should yield zero derived metrics")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Policy: "proactive", Mechanism: "CKPT LR + Live", Horizon: sim.Day}
	s := r.String()
	for _, want := range []string{"proactive", "CKPT LR + Live", "normalized", "unavailability"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string missing %q: %s", want, s)
		}
	}
}

func TestAverage(t *testing.T) {
	a := Report{Horizon: 100, Cost: 10, BaselineCost: 40, DowntimeSeconds: 2,
		Migrations: MigrationCounts{Forced: 1}, DownEpisodes: 1, LongestDowntime: 5}
	b := Report{Horizon: 100, Cost: 20, BaselineCost: 40, DowntimeSeconds: 4,
		Migrations: MigrationCounts{Forced: 2}, DownEpisodes: 3, LongestDowntime: 9}
	avg := Average([]Report{a, b})
	if avg.Cost != 15 || avg.BaselineCost != 40 || avg.DowntimeSeconds != 3 {
		t.Fatalf("avg = %+v", avg)
	}
	if avg.Migrations.Forced != 2 { // 1.5 rounds to 2
		t.Fatalf("forced = %d", avg.Migrations.Forced)
	}
	if avg.LongestDowntime != 9 {
		t.Fatalf("longest = %v", avg.LongestDowntime)
	}
}

func TestAverageEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Average(nil)
}

// TestAccumEmptyMean pins the streaming mean's empty case: a zero Report
// rather than Average's panic, so a sweep point that ran no seeds (every
// one pruned) reports zeros.
func TestAccumEmptyMean(t *testing.T) {
	var a Accum
	if got := a.Mean(); !reflect.DeepEqual(got, Report{}) {
		t.Fatalf("empty Accum mean = %+v, want the zero Report", got)
	}
}
