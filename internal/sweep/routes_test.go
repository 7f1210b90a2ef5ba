package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

// routeDigestWant pins how every cell of the route-digest sweeps was
// resolved. It covers provenance only; the toggle tests pin the reports.
const routeDigestWant = "0c1dbe2da31f284fbfdea9fabd18be66f1d0f2728390a8f87ac0261fabb2aa14"

// writeRoutes writes a sweep's provenance to w: every cell's route, the
// summary's route counts and every point's reuse bookkeeping.
func writeRoutes(w io.Writer, cells []Cell, sum *Summary) {
	for _, c := range cells {
		fmt.Fprintf(w, "cell %d %d %t %t %v %d\n", c.Point, c.Seed, c.Shared, c.Forked, c.ForkAt, c.Pilot)
	}
	fmt.Fprintf(w, "summary %d %d %d %d %d %d\n",
		sum.Cells, sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells, sum.PrunedConfigs)
	for _, r := range sum.Results {
		fmt.Fprintf(w, "result %d %d %d %d %v %d %t %d\n",
			r.Point, r.SeedsRun, r.SharedSeeds, r.ForkedSeeds, r.MeanForkAt, r.Pilot, r.Pruned, r.DominatedBy)
	}
}

// TestSweepRouteDigest pins the resolution route of every cell (simulated,
// shared with which pilot, forked from which checkpoint, pruned) over the
// warm-axis shapes the planner distinguishes, under every combination of
// WarmStart and Fork and under all three reuse switches together.
func TestSweepRouteDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a hundred sweeps")
	}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 6 * sim.Day

	grids := []struct {
		name string
		axes []Axis
	}{
		{"bid", []Axis{{Knob: KnobBid, Values: []float64{1.05, 1.1, 1.2, 1.3, 1.5, 2, 6}}}},
		{"hysteresis", []Axis{{Knob: KnobHysteresis, Values: []float64{0, 0.02, 0.05, 0.05, 0.4}}}},
		{"tau", []Axis{{Knob: KnobTau, Values: []float64{1, 1, 3, 3, 10, 30}}}},
		{"bid_x_tau", []Axis{{Knob: KnobBid, Values: []float64{1.1, 1.5, 2, 4, 5}}, {Knob: KnobTau, Values: []float64{3, 30}}}},
		{"tau_x_lambda", []Axis{{Knob: KnobTau, Values: []float64{1, 3, 10, 30}}, {Knob: KnobLambda, Values: []float64{0.5, 2}}}},
	}
	modes := []struct{ warm, fork, prune bool }{
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{true, true, false},
		{true, true, true},
	}
	h := sha256.New()
	for _, g := range grids {
		for _, m := range modes {
			spec := Spec{
				Axes:      g.axes,
				Seeds:     []int64{23, 46},
				Home:      testHome,
				Horizon:   4 * sim.Day,
				Market:    mcfg,
				WarmStart: m.warm,
				Fork:      m.fork,
				Prune:     m.prune,
			}
			var cells []Cell
			spec.OnCell = func(c Cell) { cells = append(cells, c) }
			sum, err := Run(context.Background(), &spec)
			if err != nil {
				t.Fatalf("%s %+v: %v", g.name, m, err)
			}
			fmt.Fprintf(h, "sweep %s warm=%t fork=%t prune=%t\n", g.name, m.warm, m.fork, m.prune)
			writeRoutes(h, cells, sum)
			t.Logf("%s warm=%t fork=%t prune=%t: %d simulated, %d shared, %d forked, %d pruned",
				g.name, m.warm, m.fork, m.prune, sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != routeDigestWant {
		t.Fatalf("route digest = %s, want %s", got, routeDigestWant)
	}
}

// fuzzKnobValue maps a fuzz byte into knob's valid range: bids above 1
// (some past the bid cap), checkpoint bounds on both sides of the
// two-minute revocation grace, hysteresis in [0, 1), lambda in [0, 4).
// Small ranges make equal neighbours, which the share rule must handle.
func fuzzKnobValue(knob string, b byte) float64 {
	switch knob {
	case KnobBid:
		return 1 + float64(b%128+1)/16
	case KnobTau:
		return float64(b%64+1) * 4
	case KnobHysteresis:
		return float64(b%100) / 100
	}
	return float64(b%16) / 4
}

// FuzzSweepRoutes sweeps one knob over 2-5 fuzzed values under fuzzed
// WarmStart, Fork and Prune switches and checks every resolution route
// against the ground truth: each cell is accounted for exactly once, and
// every shared or forked cell's report equals a cold run of its config.
// The seed bit picks which of the two universes runs first, which steers
// pruning.
func FuzzSweepRoutes(f *testing.F) {
	knobs := []string{KnobBid, KnobTau, KnobHysteresis, KnobLambda}
	f.Add(uint8(0), []byte{8, 16, 40, 100}, uint8(7), false)
	f.Add(uint8(0), []byte{1, 2, 2, 3}, uint8(3), true)
	f.Add(uint8(1), []byte{0, 0, 29, 30, 63}, uint8(2), false)
	f.Add(uint8(1), []byte{10, 40}, uint8(7), true)
	f.Add(uint8(2), []byte{0, 5, 5, 40}, uint8(3), false)
	f.Add(uint8(3), []byte{0, 4}, uint8(7), true)
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 2 * sim.Day
	f.Fuzz(func(t *testing.T, knob uint8, raw []byte, flags uint8, swap bool) {
		if len(raw) < 2 || len(raw) > 5 {
			return
		}
		k := knobs[int(knob)%len(knobs)]
		values := make([]float64, len(raw))
		for i, b := range raw {
			values[i] = fuzzKnobValue(k, b)
		}
		seeds := []int64{23, 46}
		if swap {
			seeds[0], seeds[1] = seeds[1], seeds[0]
		}
		spec := Spec{
			Axes:      []Axis{{Knob: k, Values: values}},
			Seeds:     seeds,
			Home:      testHome,
			Horizon:   2 * sim.Day,
			Market:    mcfg,
			Workers:   1,
			WarmStart: flags&1 != 0,
			Fork:      flags&2 != 0,
			Prune:     flags&4 != 0,
		}
		var reused []Cell
		spec.OnCell = func(c Cell) {
			if c.Shared || c.Forked {
				reused = append(reused, c)
			}
		}
		sum, err := Run(context.Background(), &spec)
		if err != nil {
			t.Fatalf("%s=%v: %v", k, values, err)
		}
		if sum.Simulated+sum.Shared+sum.Forked+sum.PrunedCells != sum.Cells {
			t.Fatalf("%s=%v: %d simulated + %d shared + %d forked + %d pruned != %d cells",
				k, values, sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells, sum.Cells)
		}
		for _, c := range reused {
			mc := mcfg
			mc.Seed = c.Seed
			set, err := market.SharedCache().Generate(mc)
			if err != nil {
				t.Fatal(err)
			}
			cp := cloud.DefaultParams(0)
			cp.Seed = c.Seed
			cold, err := sched.RunCtx(context.Background(), set, cp, sum.Plan.Points[c.Point].Config, spec.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Report, cold) {
				t.Fatalf("%s=%v point %d seed %d (shared=%v forked=%v at %v, pilot %d): report differs from a cold run\nreused: %+v\ncold:   %+v",
					k, values, c.Point, c.Seed, c.Shared, c.Forked, c.ForkAt, c.Pilot, c.Report, cold)
			}
		}
	})
}
