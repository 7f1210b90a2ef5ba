package slo

import (
	"math"
	"testing"

	"spothost/internal/metrics"
	"spothost/internal/sim"
)

func TestTargetBudgets(t *testing.T) {
	// The paper: four nines ~ 4.3 minutes per month.
	got := FourNines.MonthlyBudget()
	if got < 4.2*sim.Minute || got > 4.4*sim.Minute {
		t.Fatalf("four-nines monthly budget = %.1f min, want ~4.3", got/sim.Minute)
	}
	if math.Abs(Target(0.999).MaxDowntime(1000)-1) > 1e-9 {
		t.Fatalf("three nines of 1000 s = %v", Target(0.999).MaxDowntime(1000))
	}
	if FourNines.String() != "99.99%" {
		t.Fatalf("target string = %q", FourNines.String())
	}
}

func TestTrackerBasics(t *testing.T) {
	tr := &Tracker{}
	tr.Add(100, 130) // 30 s
	tr.Add(500, 500) // ignored: zero length
	tr.Add(900, 910) // 10 s
	if tr.Episodes() != 2 {
		t.Fatalf("episodes = %d", tr.Episodes())
	}
	if got := tr.DowntimeIn(0, 1000); got != 40 {
		t.Fatalf("downtime = %v", got)
	}
	// Partial overlap with the window.
	if got := tr.DowntimeIn(110, 905); got != 25 {
		t.Fatalf("clipped downtime = %v, want 20+5", got)
	}
	if got := tr.DowntimeIn(200, 100); got != 0 {
		t.Fatalf("inverted window = %v", got)
	}
}

func TestTrackerMergesOverlaps(t *testing.T) {
	tr := &Tracker{}
	tr.Add(100, 200)
	tr.Add(150, 250) // overlaps: merged, extends to 250
	tr.Add(160, 170) // contained: swallowed
	if tr.Episodes() != 1 {
		t.Fatalf("episodes = %d, want merged 1", tr.Episodes())
	}
	if got := tr.DowntimeIn(0, 1000); got != 150 {
		t.Fatalf("merged downtime = %v, want 150", got)
	}
}

func TestAvailabilityAndCompliance(t *testing.T) {
	tr := &Tracker{}
	tr.Add(0, 86.4) // exactly 0.01% of 10 days down
	horizon := sim.Time(10 * sim.Day)
	av := tr.Availability(0, horizon)
	if math.Abs(av-0.9999) > 1e-12 {
		t.Fatalf("availability = %v", av)
	}
	if !tr.Compliant(FourNines, 0, horizon) {
		t.Fatal("exactly-at-target should comply")
	}
	if tr.Compliant(Target(0.99999), 0, horizon) {
		t.Fatal("five nines should fail")
	}
	if got := tr.BudgetBurn(FourNines, 0, horizon); math.Abs(got-1) > 1e-12 {
		t.Fatalf("budget burn = %v, want 1.0", got)
	}
	// Empty window is trivially available.
	if tr.Availability(5, 5) != 1 {
		t.Fatal("empty window availability != 1")
	}
}

func TestBudgetBurnZeroBudget(t *testing.T) {
	tr := &Tracker{}
	if tr.BudgetBurn(Target(1), 0, 100) != 0 {
		t.Fatal("clean perfect target should burn 0")
	}
	tr.Add(10, 11)
	if tr.BudgetBurn(Target(1), 0, 100) <= 1 {
		t.Fatal("any downtime should bust a perfect target")
	}
}

func TestWindows(t *testing.T) {
	tr := &Tracker{}
	// One bad first month, clean second month.
	tr.Add(100, 100+10*sim.Minute)
	reports := tr.Windows(FourNines, 30*sim.Day, 60*sim.Day)
	if len(reports) != 2 {
		t.Fatalf("windows = %d", len(reports))
	}
	if reports[0].Compliant {
		t.Fatal("10-minute outage should bust a four-nines month")
	}
	if reports[0].BudgetBurn < 2 {
		t.Fatalf("burn = %v, want > 2x", reports[0].BudgetBurn)
	}
	if !reports[1].Compliant || reports[1].Downtime != 0 {
		t.Fatalf("clean month misreported: %+v", reports[1])
	}
	// Partial final window.
	reports = tr.Windows(FourNines, 30*sim.Day, 45*sim.Day)
	if len(reports) != 2 || reports[1].End != 45*sim.Day {
		t.Fatalf("partial window wrong: %+v", reports)
	}
	if tr.Windows(FourNines, 0, 10) != nil {
		t.Fatal("degenerate window accepted")
	}
}

func TestEpisodeDistribution(t *testing.T) {
	tr := &Tracker{}
	if d := tr.EpisodeDistribution(); d.Count != 0 {
		t.Fatalf("empty distribution: %+v", d)
	}
	durations := []sim.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	at := sim.Time(0)
	for _, d := range durations {
		tr.Add(at, at+d)
		at += d + 1000
	}
	d := tr.EpisodeDistribution()
	if d.Count != 10 || d.Max != 100 || d.Total != 550 {
		t.Fatalf("distribution: %+v", d)
	}
	if math.Abs(float64(d.Mean)-55) > 1e-9 {
		t.Fatalf("mean = %v", d.Mean)
	}
	if d.P50 < 40 || d.P50 > 60 {
		t.Fatalf("p50 = %v", d.P50)
	}
	if d.P95 < 80 {
		t.Fatalf("p95 = %v", d.P95)
	}
}

func TestFromLog(t *testing.T) {
	log := []metrics.Interval{{Start: 5, End: 15}, {Start: 100, End: 120}}
	tr := FromLog(log)
	if tr.Episodes() != 2 || tr.DowntimeIn(0, 200) != 30 {
		t.Fatalf("FromLog wrong: %d episodes, %v downtime",
			tr.Episodes(), tr.DowntimeIn(0, 200))
	}
}
