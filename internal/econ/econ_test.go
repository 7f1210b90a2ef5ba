package econ

import (
	"math"
	"strings"
	"testing"

	"spothost/internal/metrics"
	"spothost/internal/sim"
)

var shop = RevenueModel{
	RequestsPerSecond:  50,
	RevenuePerRequest:  0.002, // $0.10/s of revenue
	DegradedLossFactor: 0.3,
}

func TestModelValidation(t *testing.T) {
	if err := shop.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []RevenueModel{
		{RequestsPerSecond: -1},
		{RevenuePerRequest: -1},
		{DegradedLossFactor: 2},
		{DegradedLossFactor: -0.1},
		{RequestsPerSecond: math.NaN()},
		{RevenuePerRequest: math.NaN()},
		{DegradedLossFactor: math.NaN()},
		{RequestsPerSecond: math.Inf(1)},
		{RevenuePerRequest: math.Inf(1)},
		{RequestsPerSecond: math.Inf(1), RevenuePerRequest: 0.001},
		{RequestsPerSecond: 1e200, RevenuePerRequest: 1e200}, // product overflows
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
	if _, err := Analyze(bad[0], metrics.Report{}); err == nil {
		t.Fatal("Analyze accepted a bad model")
	}
}

func TestAnalyzeArithmetic(t *testing.T) {
	r := metrics.Report{
		Horizon:         30 * sim.Day,
		Cost:            10,
		BaselineCost:    45,
		DowntimeSeconds: 60,
		DegradedSeconds: 100,
	}
	a, err := Analyze(shop, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Savings-35) > 1e-9 {
		t.Fatalf("savings = %v", a.Savings)
	}
	// $0.10/s x 60 s = $6 down; $0.10 x 0.3 x 100 = $3 degraded.
	if math.Abs(a.LostToDowntime-6) > 1e-9 || math.Abs(a.LostToDegradation-3) > 1e-9 {
		t.Fatalf("losses: %v / %v", a.LostToDowntime, a.LostToDegradation)
	}
	if math.Abs(a.Net-26) > 1e-9 || !a.WorthIt() {
		t.Fatalf("net = %v", a.Net)
	}
	// Break-even: $35 / $0.10 per second = 350 s of downtime.
	if math.Abs(float64(a.BreakEvenDowntime)-350) > 1e-9 {
		t.Fatalf("break-even = %v", a.BreakEvenDowntime)
	}
	if math.Abs(a.HeadroomFactor-350.0/60) > 1e-9 {
		t.Fatalf("headroom = %v", a.HeadroomFactor)
	}
	if !strings.Contains(a.String(), "worth-it=true") {
		t.Fatalf("render: %s", a.String())
	}
}

func TestAnalyzeHighValueTraffic(t *testing.T) {
	// A service earning $20/s: one pure-spot style outage of 1000 s wipes
	// out any infrastructure savings.
	whale := RevenueModel{RequestsPerSecond: 1000, RevenuePerRequest: 0.02}
	r := metrics.Report{Cost: 10, BaselineCost: 45, DowntimeSeconds: 1000}
	a, err := Analyze(whale, r)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorthIt() {
		t.Fatalf("spot hosting should not pay here: %+v", a)
	}
	if a.HeadroomFactor >= 1 {
		t.Fatalf("headroom %v should be < 1 when under water", a.HeadroomFactor)
	}
}

func TestAnalyzeFreeTraffic(t *testing.T) {
	free := RevenueModel{}
	r := metrics.Report{Cost: 10, BaselineCost: 45, DowntimeSeconds: 1e6}
	a, err := Analyze(free, r)
	if err != nil {
		t.Fatal(err)
	}
	if !a.WorthIt() || a.LostToDowntime != 0 {
		t.Fatalf("free traffic: %+v", a)
	}
	if a.HeadroomFactor < 1e9 {
		t.Fatalf("free traffic headroom should be unbounded: %v", a.HeadroomFactor)
	}
}

func TestAnalyzeZeroDowntimeHeadroom(t *testing.T) {
	r := metrics.Report{Cost: 10, BaselineCost: 45}
	a, err := Analyze(shop, r)
	if err != nil {
		t.Fatal(err)
	}
	if a.HeadroomFactor < 1e9 {
		t.Fatalf("zero-downtime headroom should be unbounded: %v", a.HeadroomFactor)
	}
}
