package advisor

import (
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/econ"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

func universe(t *testing.T) *market.Set {
	t.Helper()
	cfg := market.DefaultConfig(404)
	cfg.Horizon = 12 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

var home = market.ID{Region: "us-east-1a", Type: "small"}

func TestAdviseValidation(t *testing.T) {
	set := universe(t)
	if _, err := Advise(set, cloud.DefaultParams(1), Request{
		Home: market.ID{Region: "mars", Type: "small"},
	}); err == nil {
		t.Fatal("unknown market accepted")
	}
	if _, err := Advise(set, cloud.DefaultParams(1), Request{
		Home:    home,
		Revenue: econ.RevenueModel{RequestsPerSecond: -1},
	}); err == nil {
		t.Fatal("bad revenue model accepted")
	}
	for _, target := range []float64{-1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := Advise(set, cloud.DefaultParams(1), Request{Home: home, Target: target}); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

// TestAdviseRecommendsProactiveForFourNines: with the paper's four-nines
// bar and meaningful revenue, the advisor lands on a proactive
// configuration and rejects pure spot.
func TestAdviseRecommendsProactiveForFourNines(t *testing.T) {
	rec, err := Advise(universe(t), cloud.DefaultParams(404), Request{
		Home:   home,
		Target: 0.9999,
		Revenue: econ.RevenueModel{
			RequestsPerSecond:  20,
			RevenuePerRequest:  0.001,
			DegradedLossFactor: 0.3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full matrix: 3 policies x 4 mechanisms.
	if len(rec.Candidates) != 12 {
		t.Fatalf("candidates = %d", len(rec.Candidates))
	}
	if rec.Best == nil {
		t.Fatalf("no recommendation:\n%s", rec.Render())
	}
	if rec.Best.Policy != sched.Proactive {
		t.Fatalf("recommended %v, want proactive:\n%s", rec.Best.Policy, rec.Render())
	}
	if !rec.Best.MeetsTarget || rec.Best.Analysis.Net <= 0 {
		t.Fatalf("best candidate unfit: %+v", rec.Best)
	}
	// Pure spot never meets four nines on this universe.
	for _, c := range rec.Candidates {
		if c.Policy == sched.PureSpot && c.MeetsTarget {
			t.Fatalf("pure spot met four nines: %+v", c.Report)
		}
	}
	// Ranking: compliant candidates precede non-compliant ones.
	seenNoncompliant := false
	for _, c := range rec.Candidates {
		if !c.MeetsTarget {
			seenNoncompliant = true
		} else if seenNoncompliant {
			t.Fatal("ranking interleaves compliant and non-compliant candidates")
		}
	}
	out := rec.Render()
	if !strings.Contains(out, "<= recommended") {
		t.Fatalf("render missing recommendation marker:\n%s", out)
	}
}

// TestAdviseHighRevenueSaysStayOnDemand: when a second of downtime costs
// more than a month of savings, no spot configuration survives the math.
func TestAdviseHighRevenueSaysStayOnDemand(t *testing.T) {
	rec, err := Advise(universe(t), cloud.DefaultParams(404), Request{
		Home:   home,
		Target: 0.9999,
		Revenue: econ.RevenueModel{
			RequestsPerSecond: 100000,
			RevenuePerRequest: 0.01, // $1000/s of revenue
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best != nil {
		t.Fatalf("spot recommended despite ruinous downtime: %+v", rec.Best)
	}
	if !strings.Contains(rec.Render(), "stay on on-demand") {
		t.Fatalf("render missing the stay-on-demand verdict:\n%s", rec.Render())
	}
}

var update = flag.Bool("update", false, "rewrite "+renderGolden+" from this run")

const renderGolden = "testdata/render_seed42_10d.txt"

// TestRenderGolden pins the ranked matrix for the advise command's default
// universe (seed 42) over 10 days, with the four-nines target and a revenue
// model, byte for byte.
func TestRenderGolden(t *testing.T) {
	cfg := market.DefaultConfig(42)
	cfg.Horizon = 10 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Advise(set, cloud.DefaultParams(42), Request{
		Home:   home,
		Target: 0.9999,
		Revenue: econ.RevenueModel{
			RequestsPerSecond:  20,
			RevenuePerRequest:  0.001,
			DegradedLossFactor: 0.3,
		},
		Horizon: 10 * sim.Day,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Render()
	if *update {
		if err := os.WriteFile(renderGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(renderGolden)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/advisor -update`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("render differs from %s:\ngot:\n%s\nwant:\n%s", renderGolden, got, want)
	}
}
