package sweep

import (
	"context"
	"reflect"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// flatUniverse builds a one-market universe whose price is a flat base
// ratio of on-demand with fixed daily square spikes, for deterministic
// certification and pruning scenarios. Spikes hit ratio spikeTo for
// spikeDur starting at 12h30 each day.
func flatUniverse(t *testing.T, base, spikeTo float64, spikeDur sim.Duration, days int) *market.Set {
	t.Helper()
	const od = 0.1
	pts := []market.Point{{T: 0, Price: base * od}}
	end := sim.Time(float64(days) * sim.Day)
	if spikeTo > 0 && spikeDur > 0 {
		for d := 0; d < days; d++ {
			t0 := sim.Time(float64(d)*sim.Day + 12*sim.Hour + 30*sim.Minute)
			pts = append(pts,
				market.Point{T: t0, Price: spikeTo * od},
				market.Point{T: t0 + spikeDur, Price: base * od})
		}
	}
	tr, err := market.NewTrace(testHome, pts, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{tr}, map[market.ID]float64{testHome: od})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestShareClassesBid(t *testing.T) {
	// Price never leaves base 0.5x on-demand: no bid band is ever hit, so
	// every bid value below the cap collapses into one class.
	quiet := flatUniverse(t, 0.5, 0, 0, 3)
	plan, err := NewPlan([]Axis{{Knob: KnobBid, Values: []float64{1.5, 2, 3, 4, 5, 8}}}, testHome, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := plan.Families[0].Members
	classes := shareClasses(plan, members, quiet, quiet.Horizon())
	if len(classes) != 1 || len(classes[0]) != 6 {
		t.Fatalf("quiet universe classes = %v, want one class of 6", classes)
	}

	// Daily spikes to 2.5x on-demand separate bids below 2.5 from bids
	// above it: the spike price lands in (e_lo, e_hi] exactly when the
	// pair straddles 2.5. Values 4, 5, 8 share the capped effective bid.
	spiky := flatUniverse(t, 0.5, 2.5, 20*sim.Minute, 3)
	classes = shareClasses(plan, members, spiky, spiky.Horizon())
	// 1.5 vs 2: the spike price 0.25 is above both effective bids, so both
	// get revoked identically — the band (0.15, 0.2] is never hit and they
	// certify equal. 2 vs 3 straddles the spike (0.25 in (0.2, 0.3]) and
	// must split. 3 vs 4, 4 vs 5, 5 vs 8: bands up to (0.3, 0.4] (capped)
	// miss 0.25 and merge.
	want := [][]int{{0, 1}, {2, 3, 4, 5}}
	if !reflect.DeepEqual(classes, want) {
		t.Fatalf("spiky universe classes = %v, want %v", classes, want)
	}

	// Beyond the horizon, spikes must not count: certify over just the
	// first 12 hours (before any spike) and everything merges again.
	classes = shareClasses(plan, members, spiky, 12*sim.Hour)
	if len(classes) != 1 {
		t.Fatalf("pre-spike horizon classes = %v, want one class", classes)
	}
}

func TestShareClassesHysteresis(t *testing.T) {
	// Spot sits at 0.5x od, spiking to 1.05x od daily. The candidate/
	// current cost ratios that ever occur: 0.5/1 (spot vs od), 1/0.5,
	// 0.5/1.05, 1.05/0.5, 1/1.05, 1.05/1, and 1s. decide() tests
	// c < cur*(1-h): for (c=od 0.1, cur=spot 0.105) the threshold flips
	// between h=0.02 (0.1 < 0.1029, improve) and h=0.1 (0.1 > 0.0945, no
	// improve) — so those two must split while 0.1 and 0.4 can merge only
	// if no ratio falls in their band.
	set := flatUniverse(t, 0.5, 1.05, 30*sim.Minute, 3)
	plan, err := NewPlan([]Axis{{Knob: KnobHysteresis, Values: []float64{0.02, 0.1, 0.4}}}, testHome, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hysteresis implies the multi-market shape; restrict candidates back
	// to the single test market so the oracle sees only our trace.
	for i := range plan.Points {
		plan.Points[i].Config.Markets = []market.ID{testHome}
		plan.Points[i].Config.Home = testHome
	}
	members := plan.Families[0].Members
	classes := shareClasses(plan, members, set, set.Horizon())
	if len(classes) < 2 {
		t.Fatalf("classes = %v: 0.02 and 0.1 must diverge (ratio 0.952 in band)", classes)
	}
	if classes[0][0] != 0 || len(classes[0]) != 1 {
		t.Fatalf("classes = %v: first class must be {0.02} alone", classes)
	}

	// With no spikes, the only ratios are 0.5, 2 and 1; no band in
	// (0.02, 0.4] catches them... except ratio 0.5 needs 1-h < 0.5, i.e.
	// h > 0.5, outside the range — so all three values certify equal.
	quiet := flatUniverse(t, 0.5, 0, 0, 3)
	classes = shareClasses(plan, members, quiet, quiet.Horizon())
	if len(classes) != 1 || len(classes[0]) != 3 {
		t.Fatalf("quiet classes = %v, want one class of 3", classes)
	}
}

// stripProvenance zeroes a Result's reuse bookkeeping (which legitimately
// differs between cold, warm, and fork runs) so comparisons check only the
// metric content.
func stripProvenance(r Result) Result {
	r.SharedSeeds, r.ForkedSeeds, r.MeanForkAt, r.Pilot = 0, 0, 0, 0
	return r
}

// TestWarmStartToggleByteIdentity is the acceptance test for warm-start:
// on a synthetic multi-seed grid, WarmStart on and off must produce
// byte-identical per-cell reports and summaries, while actually sharing
// work when on.
func TestWarmStartToggleByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulations")
	}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 6 * sim.Day

	grids := map[string][]Axis{
		"bid":        {{Knob: KnobBid, Values: []float64{1.5, 2, 3, 4, 5, 6}}},
		"bid_x_tau":  {{Knob: KnobBid, Values: []float64{2, 4, 5}}, {Knob: KnobTau, Values: []float64{3, 30}}},
		"hysteresis": {{Knob: KnobHysteresis, Values: []float64{0, 0.02, 0.05, 0.4}}},
	}
	for name, axes := range grids {
		t.Run(name, func(t *testing.T) {
			spec := Spec{
				Axes:    axes,
				Seeds:   []int64{23, 46},
				Home:    testHome,
				Horizon: 4 * sim.Day,
				Market:  mcfg,
			}
			run := func(warm bool) ([]Cell, *Summary) {
				s := spec
				s.WarmStart = warm
				var cells []Cell
				s.OnCell = func(c Cell) { cells = append(cells, c) }
				sum, err := Run(context.Background(), &s)
				if err != nil {
					t.Fatal(err)
				}
				return cells, sum
			}
			cold, coldSum := run(false)
			warm, warmSum := run(true)

			if len(cold) != len(warm) || len(cold) != coldSum.Cells {
				t.Fatalf("cell counts: cold %d, warm %d, want %d", len(cold), len(warm), coldSum.Cells)
			}
			if coldSum.Shared != 0 {
				t.Fatalf("cold run shared %d cells", coldSum.Shared)
			}
			for i := range cold {
				c, w := cold[i], warm[i]
				if c.Point != w.Point || c.Seed != w.Seed {
					t.Fatalf("cell %d order differs: cold (%d,%d) vs warm (%d,%d)",
						i, c.Point, c.Seed, w.Point, w.Seed)
				}
				if !reflect.DeepEqual(c.Report, w.Report) {
					t.Fatalf("%s cell %d (point %d seed %d, shared=%v): warm report differs from cold\ncold: %+v\nwarm: %+v",
						name, i, c.Point, c.Seed, w.Shared, c.Report, w.Report)
				}
			}
			for i := range coldSum.Results {
				if c, w := stripProvenance(coldSum.Results[i]), stripProvenance(warmSum.Results[i]); !reflect.DeepEqual(c, w) {
					t.Fatalf("result %d differs:\ncold: %+v\nwarm: %+v", i, c, w)
				}
			}
			if warmSum.Simulated+warmSum.Shared+warmSum.Forked != warmSum.Cells {
				t.Fatalf("warm accounting: %d simulated + %d shared + %d forked != %d cells",
					warmSum.Simulated, warmSum.Shared, warmSum.Forked, warmSum.Cells)
			}
			if name == "bid" && warmSum.Shared == 0 {
				// Bids 4, 5, 6 share one capped effective bid, so the bid
				// grid must share at least those cells.
				t.Fatalf("bid grid shared nothing; certification is vacuous")
			}
			t.Logf("%s: %d cells, warm simulated %d, shared %d", name, warmSum.Cells, warmSum.Simulated, warmSum.Shared)
		})
	}
}

// TestForkToggleByteIdentity is the acceptance test for fork reuse: with
// Fork on, warm-axis siblings resume the family pilot's checkpoints — on a
// tau axis, which has no whole-horizon oracle and was previously never
// shareable — and every per-cell report and per-point aggregate must stay
// byte-identical to the fork-off sweep.
func TestForkToggleByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulations")
	}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 6 * sim.Day

	grids := map[string][]Axis{
		"tau": {{Knob: KnobTau, Values: []float64{1, 3, 10, 30}}},
		"bid": {{Knob: KnobBid, Values: []float64{1.5, 2, 3, 4, 5, 6}}},
		"tau-lambda": {
			{Knob: KnobTau, Values: []float64{1, 3, 10, 30}},
			{Knob: KnobLambda, Values: []float64{0.5, 2}},
		},
	}
	for name, axes := range grids {
		t.Run(name, func(t *testing.T) {
			spec := Spec{
				Axes:    axes,
				Seeds:   []int64{23, 46},
				Home:    testHome,
				Horizon: 4 * sim.Day,
				Market:  mcfg,
			}
			run := func(fork bool) ([]Cell, *Summary) {
				s := spec
				s.Fork = fork
				var cells []Cell
				s.OnCell = func(c Cell) { cells = append(cells, c) }
				sum, err := Run(context.Background(), &s)
				if err != nil {
					t.Fatal(err)
				}
				return cells, sum
			}
			cold, coldSum := run(false)
			forked, forkSum := run(true)

			if len(cold) != len(forked) || len(cold) != coldSum.Cells {
				t.Fatalf("cell counts: off %d, on %d, want %d", len(cold), len(forked), coldSum.Cells)
			}
			if coldSum.Forked != 0 || coldSum.Shared != 0 {
				t.Fatalf("fork-off run reused cells: %d forked, %d shared", coldSum.Forked, coldSum.Shared)
			}
			for i := range cold {
				c, f := cold[i], forked[i]
				if c.Point != f.Point || c.Seed != f.Seed {
					t.Fatalf("cell %d order differs: off (%d,%d) vs on (%d,%d)",
						i, c.Point, c.Seed, f.Point, f.Seed)
				}
				if !reflect.DeepEqual(c.Report, f.Report) {
					t.Fatalf("%s cell %d (point %d seed %d, forked=%v at %v): fork report differs from cold\ncold: %+v\nfork: %+v",
						name, i, c.Point, c.Seed, f.Forked, f.ForkAt, c.Report, f.Report)
				}
				if f.Forked && f.ForkAt <= 0 {
					t.Fatalf("%s cell %d forked with non-positive resume time %v", name, i, f.ForkAt)
				}
			}
			for i := range coldSum.Results {
				if c, f := stripProvenance(coldSum.Results[i]), stripProvenance(forkSum.Results[i]); !reflect.DeepEqual(c, f) {
					t.Fatalf("result %d differs:\noff: %+v\non:  %+v", i, c, f)
				}
			}
			if forkSum.Simulated+forkSum.Shared+forkSum.Forked != forkSum.Cells {
				t.Fatalf("fork accounting: %d simulated + %d shared + %d forked != %d cells",
					forkSum.Simulated, forkSum.Shared, forkSum.Forked, forkSum.Cells)
			}
			if forkSum.Forked == 0 {
				t.Fatalf("%s grid forked nothing; fork reuse is vacuous", name)
			}
			t.Logf("%s: %d cells, fork-on simulated %d, shared %d, forked %d",
				name, forkSum.Cells, forkSum.Simulated, forkSum.Shared, forkSum.Forked)
		})
	}
}

// TestPruneDominatedSweep drives a full sweep on a hand-built universe
// engineered so the low-bid config is strictly dominated: daily 10-minute
// spikes to 1.2x on-demand revoke the low bid (effective 1.15x od),
// forcing a migration to on-demand and back, while the high bid rides the
// short spike. Same universe every seed, so dominance holds on seed one
// and pruning cuts the low bid's remaining seeds.
func TestPruneDominatedSweep(t *testing.T) {
	set := flatUniverse(t, 0.2, 1.2, 10*sim.Minute, 5)
	spec := Spec{
		Axes:     []Axis{{Knob: KnobBid, Values: []float64{1.15, 4}}},
		Seeds:    []int64{1, 2, 3},
		Home:     testHome,
		Prune:    true,
		Universe: func(int64) (*market.Set, error) { return set, nil },
	}
	var cells []Cell
	spec.OnCell = func(c Cell) { cells = append(cells, c) }
	sum, err := Run(context.Background(), &spec)
	if err != nil {
		t.Fatal(err)
	}

	low, high := sum.Results[0], sum.Results[1]
	if low.Values[0] != 1.15 || high.Values[0] != 4 {
		t.Fatalf("unexpected point order: %+v", sum.Results)
	}
	if high.Pruned {
		t.Fatalf("the dominating config was pruned: %+v", high)
	}
	if !low.Pruned {
		t.Fatalf("low bid not pruned; mean reports:\nlow: cost %.4f unav %.6f\nhigh: cost %.4f unav %.6f",
			low.Mean.NormalizedCost(), low.Mean.Unavailability(),
			high.Mean.NormalizedCost(), high.Mean.Unavailability())
	}
	if low.DominatedBy != high.Point {
		t.Fatalf("DominatedBy = %d, want %d", low.DominatedBy, high.Point)
	}
	if low.SeedsRun != 1 {
		t.Fatalf("low bid ran %d seeds, want pruned after 1", low.SeedsRun)
	}
	if sum.PrunedConfigs != 1 || sum.PrunedCells != 2 {
		t.Fatalf("summary pruning: configs %d cells %d, want 1 and 2", sum.PrunedConfigs, sum.PrunedCells)
	}
	// Accounting: every cell is simulated, shared, forked, or pruned.
	if sum.Simulated+sum.Shared+sum.Forked+sum.PrunedCells != sum.Cells {
		t.Fatalf("accounting: %d + %d + %d + %d != %d",
			sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells, sum.Cells)
	}
	// The pruned point stops producing cells after its first seed.
	for _, c := range cells {
		if c.Point == low.Point && c.SeedIdx > 0 {
			t.Fatalf("pruned point produced cell for seed index %d", c.SeedIdx)
		}
	}
}

func TestPruneDominatedUnit(t *testing.T) {
	mk := func(stats ...[2]float64) pointState {
		st := pointState{dominatedBy: -1}
		for _, s := range stats {
			st.stats = append(st.stats, seedStat{cost: s[0], unav: s[1]})
		}
		return st
	}
	states := []pointState{
		mk([2]float64{0.5, 0.001}, [2]float64{0.6, 0.002}), // 0: frontier
		mk([2]float64{0.9, 0.002}, [2]float64{0.9, 0.003}), // 1: dominated by 0
		mk([2]float64{0.4, 0.010}, [2]float64{0.5, 0.010}), // 2: cheaper but less available
		mk([2]float64{0.6, 0.000}, [2]float64{0.7, 0.001}), // 3: most available
		mk([2]float64{0.45, 0.003}, [2]float64{0.7, 0.001}),
		// 5: worse than 0 on means, but wins seed 2 on cost — per-seed
		// verification must refuse the prune.
		mk([2]float64{0.8, 0.002}, [2]float64{0.55, 0.002}),
	}
	cut := pruneDominated(states, 2)
	if !reflect.DeepEqual(cut, []int{1}) {
		t.Fatalf("cut = %v, want [1]", cut)
	}
	// Points 0 and 3 both dominate point 1 per-seed; the pass credits the
	// nearest-cheaper frontier entry, which is 3 (mean cost 0.65 vs 0.9).
	if states[1].dominatedBy != 3 {
		t.Fatalf("dominatedBy = %d, want 3", states[1].dominatedBy)
	}
	// Running again changes nothing: 1 is out, no new dominance appears.
	if again := pruneDominated(states, 2); len(again) != 0 {
		t.Fatalf("second pass cut %v", again)
	}
}

// shareClasses partitions family members (point indices sorted by
// ascending warm value) into runs certified to simulate identically on
// this universe within [0, horizon): the runner's whole-horizon share
// test, applied to every adjacent pair. The first member of each class is
// the pilot.
func shareClasses(plan *Plan, members []int, set *market.Set, horizon sim.Time) [][]int {
	times := adjacentDivergeTimes(plan, members, set, horizon)
	classes := [][]int{{members[0]}}
	for i := 1; i < len(members); i++ {
		if times == nil || times[i-1] < horizon {
			classes = append(classes, nil)
		}
		last := len(classes) - 1
		classes[last] = append(classes[last], members[i])
	}
	return classes
}
