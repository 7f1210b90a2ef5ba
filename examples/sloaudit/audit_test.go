package main

import (
	"fmt"
	"math"
	"testing"

	"spothost/internal/metrics"
	"spothost/internal/sim"
)

const fourNines = 0.9999

func TestTargetBudgets(t *testing.T) {
	// The paper: four nines ~ 4.3 minutes per month.
	got := budget(fourNines, 30*sim.Day)
	if got < 4.2*sim.Minute || got > 4.4*sim.Minute {
		t.Fatalf("four-nines monthly budget = %.1f min, want ~4.3", got/sim.Minute)
	}
	if math.Abs(budget(0.999, 1000)-1) > 1e-9 {
		t.Fatalf("three nines of 1000 s = %v", budget(0.999, 1000))
	}
	if s := fmt.Sprintf("%g%%", fourNines*100); s != "99.99%" {
		t.Fatalf("target string = %q", s)
	}
}

func TestAvailabilityAndCompliance(t *testing.T) {
	downtime := []metrics.Interval{{Start: 0, End: 86.4}} // exactly 0.01% of 10 days down
	horizon := 10 * sim.Day
	w := windows(downtime, fourNines, horizon, horizon)
	if len(w) != 1 {
		t.Fatalf("windows = %d, want 1", len(w))
	}
	if math.Abs(w[0].avail-0.9999) > 1e-12 {
		t.Fatalf("availability = %v", w[0].avail)
	}
	if !w[0].ok {
		t.Fatal("exactly-at-target should comply")
	}
	if windows(downtime, 0.99999, horizon, horizon)[0].ok {
		t.Fatal("five nines should fail")
	}
	if math.Abs(w[0].burn-1) > 1e-12 {
		t.Fatalf("budget burn = %v, want 1.0", w[0].burn)
	}
}

func TestWindows(t *testing.T) {
	// One bad first month, clean second month.
	downtime := []metrics.Interval{{Start: 100, End: 100 + 10*sim.Minute}}
	w := windows(downtime, fourNines, 30*sim.Day, 60*sim.Day)
	if len(w) != 2 {
		t.Fatalf("windows = %d", len(w))
	}
	if w[0].ok {
		t.Fatal("10-minute outage should bust a four-nines month")
	}
	if w[0].burn < 2 {
		t.Fatalf("burn = %v, want > 2x", w[0].burn)
	}
	if !w[1].ok || w[1].down != 0 {
		t.Fatalf("clean month misreported: %+v", w[1])
	}
	// Partial final window.
	w = windows(downtime, fourNines, 30*sim.Day, 45*sim.Day)
	if len(w) != 2 || w[1].end != 45*sim.Day {
		t.Fatalf("partial window wrong: %+v", w)
	}
}

func TestEpisodeDistribution(t *testing.T) {
	if n, _, _ := episodes(nil); n != 0 {
		t.Fatalf("empty distribution: %d episodes", n)
	}
	var downtime []metrics.Interval
	at := 0.0
	for _, d := range []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		downtime = append(downtime, metrics.Interval{Start: at, End: at + d})
		at += d + 1000
	}
	n, mean, p95 := episodes(downtime)
	if n != 10 {
		t.Fatalf("episodes = %d, want 10", n)
	}
	if math.Abs(mean-55) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
	if p95 != 90 { // index int(0.95*9) = 8 of the sorted lengths
		t.Fatalf("p95 = %v, want 90", p95)
	}
}

func TestFromLog(t *testing.T) {
	downtime := []metrics.Interval{{Start: 5, End: 15}, {Start: 50, End: 50}, {Start: 100, End: 120}}
	if n, _, _ := episodes(downtime); n != 2 {
		t.Fatalf("episodes = %d, want 2 (zero-length skipped)", n)
	}
	if w := windows(downtime, fourNines, 200, 200); w[0].down != 30 {
		t.Fatalf("downtime = %v, want 30", w[0].down)
	}
	// Partial overlap with the window.
	if w := windows(downtime, fourNines, 100, 200); w[0].down != 10 || w[1].down != 20 {
		t.Fatalf("clipped downtime = %v, %v, want 10, 20", w[0].down, w[1].down)
	}
	if w := windows(downtime, fourNines, 110, 200); w[0].down != 20 || w[1].down != 10 {
		t.Fatalf("clipped downtime = %v, %v, want 10+10, 10", w[0].down, w[1].down)
	}
}

// Example audits two months of downtime episodes against the paper's
// four-nines requirement.
func Example() {
	downtime := []metrics.Interval{
		{Start: 2 * sim.Day, End: 2*sim.Day + 120},   // a 2-minute outage in month 1
		{Start: 10 * sim.Day, End: 10*sim.Day + 90},  // 1.5 minutes more: month 1 total 3.5 min
		{Start: 40 * sim.Day, End: 40*sim.Day + 600}, // a 10-minute outage in month 2
	}
	for i, w := range windows(downtime, fourNines, 30*sim.Day, 60*sim.Day) {
		fmt.Printf("month %d: %.1f min down, burn %.0f%%, compliant=%v\n",
			i+1, w.down/sim.Minute, 100*w.burn, w.ok)
	}
	// Output:
	// month 1: 3.5 min down, burn 81%, compliant=true
	// month 2: 10.0 min down, burn 231%, compliant=false
}
