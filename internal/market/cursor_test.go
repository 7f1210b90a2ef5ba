package market

import (
	"math/rand"
	"testing"

	"spothost/internal/sim"
)

// randomOffsetTrace builds a trace with n random step times whose first
// point may sit after 0, so the before-first-point path gets exercised
// (randomTrace in property_test.go always starts at 0).
func randomOffsetTrace(t *testing.T, rng *rand.Rand, n int) *Trace {
	t.Helper()
	pts := make([]Point, 0, n)
	tm := sim.Time(rng.Float64() * 100)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{T: tm, Price: 0.01 + rng.Float64()})
		tm += sim.Time(1 + rng.Float64()*500)
	}
	return mustTrace(t, testID, pts, tm+sim.Time(1+rng.Float64()*500))
}

func TestCursorMatchesTraceMonotone(t *testing.T) {
	// Monotone (and frequently repeated) queries — the access pattern of
	// billing hours, fleet ticks and scheduler scans — must agree exactly
	// with the trace's binary-search lookups.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tr := randomOffsetTrace(t, rng, 1+rng.Intn(200))
		c := NewCursor(tr)
		q := sim.Time(-50)
		for i := 0; i < 500; i++ {
			// Mostly advance, sometimes repeat the same query time.
			if rng.Float64() < 0.7 {
				q += sim.Time(rng.Float64() * 300)
			}
			if got, want := c.PriceAt(q), tr.PriceAt(q); got != want {
				t.Fatalf("trial %d: PriceAt(%v) = %v, want %v", trial, q, got, want)
			}
		}
	}
}

func TestCursorMatchesTraceBackward(t *testing.T) {
	// Backward queries re-seek from scratch; interleave arbitrary jumps in
	// both directions, including before the first point.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		tr := randomOffsetTrace(t, rng, 1+rng.Intn(200))
		c := NewCursor(tr)
		span := float64(tr.End()-tr.Start()) + 200
		for i := 0; i < 500; i++ {
			q := tr.Start() - 100 + sim.Time(rng.Float64()*span)
			if got, want := c.PriceAt(q), tr.PriceAt(q); got != want {
				t.Fatalf("trial %d: PriceAt(%v) = %v, want %v", trial, q, got, want)
			}
		}
	}
}

func TestCursorBeforeFirstPoint(t *testing.T) {
	tr := mustTrace(t, testID, []Point{{10, 0.1}, {20, 0.3}}, 30)
	c := NewCursor(tr)
	if got := c.PriceAt(0); got != tr.PriceAt(0) {
		t.Fatalf("PriceAt before first point = %v, want %v", got, tr.PriceAt(0))
	}
}
