// Paper-level benchmark harness: one testing.B target per table and figure
// in the evaluation. Each benchmark regenerates its table/figure from
// scratch per iteration (workload generation, simulation, aggregation) and
// reports the experiment's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.
// Benchmarks default to reduced fidelity (one seed, 10-day horizon) so the
// suite completes in seconds; run cmd/paperbench for full-fidelity output.
package spothost

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/controlplane"
	"spothost/internal/experiments"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/scenario"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/sweep"
	"spothost/internal/tpcw"
	"spothost/internal/trace"
	"spothost/internal/vm"
)

// benchOpts returns the reduced-fidelity options used by the benchmarks.
func benchOpts() experiments.Options {
	o := experiments.Quick()
	o.Seeds = []int64{11}
	return o
}

// BenchmarkFigure1PriceTraces regenerates the Fig. 1 month-long spot price
// traces and their summary statistics.
func BenchmarkFigure1PriceTraces(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Summaries[0].Mean / r.Summaries[0].OnDemand
	}
	b.ReportMetric(mean, "spot/od-ratio")
}

// BenchmarkTable1StartupTimes measures instance allocation latencies
// through the simulated provider.
func BenchmarkTable1StartupTimes(b *testing.B) {
	var spot float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		spot = r.Spot["us-east-1"]
	}
	b.ReportMetric(spot, "spot-startup-s")
}

// BenchmarkTable2MigrationOverheads evaluates the migration mechanism
// latency models (live migrate / checkpoint / disk copy).
func BenchmarkTable2MigrationOverheads(b *testing.B) {
	var live float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		live = r.LiveIntra["us-east-1a"]
	}
	b.ReportMetric(live, "live-2GB-s")
}

// BenchmarkFigure6ProactiveVsReactive runs the proactive-vs-reactive
// comparison across all four instance sizes (Fig. 6a-d).
func BenchmarkFigure6ProactiveVsReactive(b *testing.B) {
	var proactCost, proactUnavail float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		proactCost = r.Rows[0].Proact.NormalizedCost()
		proactUnavail = r.Rows[0].Proact.Unavailability()
	}
	b.ReportMetric(100*proactCost, "proact-cost-%")
	b.ReportMetric(100*proactUnavail, "proact-unavail-%")
}

// BenchmarkFigure7MigrationMechanisms compares the four mechanism
// combinations under typical and pessimistic constants (Fig. 7).
func BenchmarkFigure7MigrationMechanisms(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		best = r.Cells[len(r.Cells)-1].Typical.Unavailability()
	}
	b.ReportMetric(100*best, "lr+live-unavail-%")
}

// BenchmarkFigure8MultiMarket runs single- vs multi-market fleets in every
// region (Fig. 8a-c).
func BenchmarkFigure8MultiMarket(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reduction = r.Rows[0].Reduction
	}
	b.ReportMetric(100*reduction, "multi-reduction-%")
}

// BenchmarkFigure9MultiRegion runs single- vs multi-region fleets over all
// region pairs (Fig. 9a-c).
func BenchmarkFigure9MultiRegion(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		cost = r.Rows[0].Multi.NormalizedCost()
	}
	b.ReportMetric(100*cost, "multi-region-cost-%")
}

// BenchmarkFigure10PriceVariability computes per-region per-size price
// standard deviations (Fig. 10).
func BenchmarkFigure10PriceVariability(b *testing.B) {
	var east float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		east = r.StdDev["us-east-1a"]["xlarge"]
	}
	b.ReportMetric(east, "useast-xlarge-std-$")
}

// BenchmarkFigure11PureSpot compares migration-based hosting against spot
// instances alone (Fig. 11a-b).
func BenchmarkFigure11PureSpot(b *testing.B) {
	var pure float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		pure = r.Rows[0].PureSpot.Unavailability()
	}
	b.ReportMetric(100*pure, "pure-spot-unavail-%")
}

// BenchmarkTable3CostAvailabilityMatrix derives the qualitative matrix
// from measured runs (Table 3).
func BenchmarkTable3CostAvailabilityMatrix(b *testing.B) {
	var ok float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if r.MigrationIsBest {
			ok = 1
		}
	}
	b.ReportMetric(ok, "migration-best")
}

// BenchmarkTable4NestedIOOverhead measures nested-vs-native I/O throughput
// (Table 4).
func BenchmarkTable4NestedIOOverhead(b *testing.B) {
	var deg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		deg = r.DegradationPct[2]
	}
	b.ReportMetric(deg, "disk-read-deg-%")
}

// BenchmarkFigure12TPCWOverhead sweeps the TPC-W load for both workload
// configurations on native and nested VMs (Fig. 12a-b).
func BenchmarkFigure12TPCWOverhead(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := r.NoImages[len(r.NoImages)-1]
		ratio = last.NestedMs / last.NativeMs
	}
	b.ReportMetric(ratio, "cpu-bound-400EB-ratio")
}

// BenchmarkSection6OverheadImpact derives the worst-case cost savings
// under nested CPU overhead (Sec. 6 text).
func BenchmarkSection6OverheadImpact(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Section6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		worst = r.WorstCaseCost
	}
	b.ReportMetric(100*worst, "worst-cost-%")
}

// BenchmarkAblationDesignChoices sweeps the scheduler's design knobs (bid
// multiple, checkpoint bound, hysteresis, stability penalty) — the
// ablation studies DESIGN.md calls out.
func BenchmarkAblationDesignChoices(b *testing.B) {
	var forcedAtCap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		forcedAtCap = r.BidMultiple[len(r.BidMultiple)-1].Report.ForcedPerHour()
	}
	b.ReportMetric(forcedAtCap, "forced/hr-at-4x-bid")
}

// BenchmarkRobustnessRegimes runs the policies under the alternative
// banded-reserve price regime (Agmon Ben-Yehuda et al.) and the calibrated
// one — the conclusions-degrade-gracefully check.
func BenchmarkRobustnessRegimes(b *testing.B) {
	var bandedUnavail float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Robustness(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		bandedUnavail = r.Rows[0].Banded.Unavailability()
	}
	b.ReportMetric(100*bandedUnavail, "banded-unavail-%")
}

// --- component micro-benchmarks -------------------------------------------
// These measure the substrates themselves rather than paper artifacts.

// BenchmarkMarketGenerate measures synthetic-universe generation (16
// markets x 30 days).
func BenchmarkMarketGenerate(b *testing.B) {
	cfg := market.DefaultConfig(1)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := market.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarketGenerateCatalog measures cold generation of the
// 40-market catalog universe (ten catalog types x four regions, 30 days),
// the build every market-cache miss of a typed fleet pays. Iterations
// cycle through a fixed pool of seeds, so an op costs the same whatever
// -benchtime is.
func BenchmarkMarketGenerateCatalog(b *testing.B) {
	cfg := market.DefaultConfig(0)
	cfg.Types = catalog.Default().TypeSpecs()
	pool := []int64{1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		cfg.Seed = pool[i%len(pool)]
		if _, err := market.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeBuild measures one cold build of the 1/units-weighted
// cheapest-market envelope over the catalog markets a "small"-anchored
// fleet may use. Envelopes are memoized per Set, so each iteration
// repacks the pre-generated traces into a fresh Set outside the timer.
func BenchmarkEnvelopeBuild(b *testing.B) {
	cat := catalog.Default()
	mcfg := market.DefaultConfig(1)
	mcfg.Types = cat.TypeSpecs()
	set, err := market.Generate(mcfg)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := cat.CompatibleMarkets(set, "small")
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, len(ids))
	for i, id := range ids {
		e, _ := cat.Lookup(id.Type)
		weights[i] = e.InvUnits()
	}
	var traces []*market.Trace
	onDemand := map[market.ID]float64{}
	for _, id := range set.IDs() {
		traces = append(traces, set.Trace(id))
		onDemand[id] = set.OnDemand(id)
	}
	b.ReportMetric(float64(len(ids)), "markets")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := market.NewSet(traces, onDemand)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if fresh.Envelope(ids, weights) == nil {
			b.Fatal("nil envelope")
		}
	}
}

// BenchmarkSchedulerMonth measures one 30-day proactive hosting run
// end-to-end (price events, revocations, migrations, billing).
func BenchmarkSchedulerMonth(b *testing.B) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := sched.DefaultConfig(home)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := market.DefaultConfig(0)
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunSeedsTracedCtx(context.Background(), mcfg, []sched.Config{cfg}, nil,
			30*sim.Day, []int64{int64(i + 1)}, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerMonthTraced is BenchmarkSchedulerMonth with a live
// trace recorder attached: the delta against the nil-recorder baseline is
// the whole-run cost of span and histogram recording.
func BenchmarkSchedulerMonthTraced(b *testing.B) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := sched.DefaultConfig(home)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := market.DefaultConfig(0)
	col := trace.NewHistogramCollector()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunSeedsTracedCtx(context.Background(), mcfg, []sched.Config{cfg}, nil, 30*sim.Day, []int64{int64(i + 1)}, 0, col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerMonthMulti measures one 30-day proactive run of the
// sweep's multi-market shape (sweep.BuildConfig with a lambda setting:
// four one-unit VMs over the home region's four types), where the
// hour-boundary placement check dominates. lambda=0 takes the envelope
// fast path; lambda=0.5 scans every candidate with its volatility term.
// It cycles benchFleetPool's universes, generated, with their envelope
// memos, by one untimed month per seed before the timer starts.
func BenchmarkSchedulerMonthMulti(b *testing.B) {
	ctx := context.Background()
	home := market.ID{Region: "us-east-1a", Type: "small"}
	for _, lambda := range []float64{0, 0.5} {
		b.Run(fmt.Sprintf("lambda=%v", lambda), func(b *testing.B) {
			cfg, err := sweep.BuildConfig(home, 0, []sweep.Setting{{Knob: sweep.KnobLambda, Value: lambda}})
			if err != nil {
				b.Fatal(err)
			}
			sets := make([]*market.Set, len(benchFleetPool))
			params := make([]cloud.Params, len(benchFleetPool))
			for k, seed := range benchFleetPool {
				if sets[k], params[k], err = cloud.Seeded(market.DefaultConfig(0), cloud.DefaultParams(0), seed); err != nil {
					b.Fatal(err)
				}
				if _, err := sched.RunCtx(ctx, sets[k], params[k], cfg, 30*sim.Day); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(benchFleetPool)
				if _, err := sched.RunCtx(ctx, sets[k], params[k], cfg, 30*sim.Day); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFleetPool is the fixed seed pool the fleet-month benchmarks cycle
// through, so an op costs the same whatever -benchtime is.
var benchFleetPool = []int64{1, 2, 3, 4}

// benchFleetConfig is the fleet every fleet-month benchmark runs: a
// diversified fleet over a month of diurnal demand with a linear capacity
// model, so the benchmark isolates the controller rather than the TPC-W
// planner.
func benchFleetConfig(b *testing.B) fleet.Config {
	b.Helper()
	demand, err := fleet.NewDiurnalDemand(fleet.DefaultDiurnalConfig(30*sim.Day, 0))
	if err != nil {
		b.Fatal(err)
	}
	return fleet.Config{
		Strategy: fleet.Diversified{},
		Demand:   demand,
		Planner:  fleet.LinearPlanner{PerReplica: 6},
	}
}

// benchFleetMonths runs b.N timed fleet months cycling through the seed
// pool, with a telemetry recorder attached when withObs. One untimed month
// per pool seed first fills market.SharedCache and each universe's
// envelope memo, so every timed month is warm.
func benchFleetMonths(b *testing.B, mcfg market.Config, cfg fleet.Config, withObs bool) {
	if _, err := fleet.RunSeedsParallelCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg,
		30*sim.Day, benchFleetPool, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var lost, decisions int
	for i := 0; i < b.N; i++ {
		set, cp, err := cloud.Seeded(mcfg, cloud.DefaultParams(0), benchFleetPool[i%len(benchFleetPool)])
		if err != nil {
			b.Fatal(err)
		}
		var ob *obs.Recorder
		if withObs {
			ob = obs.NewRecorder("bench", obs.Config{})
		}
		rep, err := fleet.RunObsCtx(context.Background(), set, cp, cfg, 30*sim.Day, nil, ob)
		if err != nil {
			b.Fatal(err)
		}
		lost += rep.ReplicasLost
		if withObs {
			decisions += len(ob.Ledger())
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "replicas-lost/run")
	if withObs {
		b.ReportMetric(float64(decisions)/float64(b.N), "decisions/run")
	}
}

// BenchmarkFleetMonth measures one warm 30-day diversified fleet run
// end-to-end (autoscaling ticks, spot launches, revocation replacement,
// billing).
func BenchmarkFleetMonth(b *testing.B) {
	benchFleetMonths(b, market.DefaultConfig(0), benchFleetConfig(b), false)
}

// BenchmarkFleetMonthObs is BenchmarkFleetMonth with a telemetry recorder
// attached: the same warm months, but every controller decision lands in
// the ledger and every tick feeds the downsampled timelines. Its ns/op
// over BenchmarkFleetMonth's is the whole observability overhead; CI's
// live ratio gate bounds the median of that ratio.
func BenchmarkFleetMonthObs(b *testing.B) {
	benchFleetMonths(b, market.DefaultConfig(0), benchFleetConfig(b), true)
}

// BenchmarkRunSeedsParallel measures the multi-seed fan-out at one worker
// versus one worker per core: eight 10-day proactive runs per iteration,
// with universes drawn from the shared market cache. On a multi-core
// machine the NumCPU variant should approach a linear speedup, since the
// per-seed simulations are independent and single-threaded.
func BenchmarkRunSeedsParallel(b *testing.B) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := sched.DefaultConfig(home)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := market.DefaultConfig(0)
	mcfg.Horizon = 10 * sim.Day
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.RunSeedsTracedCtx(context.Background(), mcfg, []sched.Config{cfg}, nil,
					10*sim.Day, seeds, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControlPlane10k measures the multi-tenant control plane at its
// 10k registered-fleet design point: each iteration registers ten
// thousand one-day fleets (sharing one cached universe), time-slices them
// all to completion across the default shard count, and reports the
// sustained slice throughput plus the p99 latency of snapshot reads
// issued while the runtime is busy — the two numbers that bound how many
// tenants one process can serve interactively.
func BenchmarkControlPlane10k(b *testing.B) {
	const nFleets = 10000
	spec := controlplane.Spec{
		Seed:  3,
		Days:  1,
		Fleet: scenario.FleetDef{Strategy: "diversified"},
	}
	names := make([]string, nFleets)
	for i := range names {
		names[i] = fmt.Sprintf("f%05d", i)
	}
	var stepsPerSec float64
	var p99 time.Duration
	for i := 0; i < b.N; i++ {
		p := controlplane.New(controlplane.Config{
			MaxFleets:   nFleets,
			TenantQuota: nFleets,
			Slice:       6 * sim.Hour, // four slices per fleet
		})
		start := time.Now()
		for _, name := range names {
			if _, err := p.Register("bench", name, spec); err != nil {
				b.Fatal(err)
			}
		}
		lat := make([]time.Duration, 0, 1<<16)
		for done := false; !done; {
			for k := 0; k < 200; k++ {
				t0 := time.Now()
				if _, err := p.Snapshot("bench", names[(len(lat)*97)%nFleets]); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			st := p.Stats()
			if st.Failed > 0 {
				b.Fatalf("%d fleets failed", st.Failed)
			}
			done = st.Done == nFleets
		}
		elapsed := time.Since(start).Seconds()
		stepsPerSec = float64(p.Stats().StepsTotal) / elapsed
		sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
		p99 = lat[len(lat)*99/100]
		p.Close()
	}
	b.ReportMetric(stepsPerSec, "steps/s")
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-snapshot-ns")
}

// BenchmarkLiveMigrationModel measures the pre-copy timeline computation.
func BenchmarkLiveMigrationModel(b *testing.B) {
	p := vm.DefaultParams()
	spec := vm.Spec{MemoryGB: 15, DirtyRateMBps: 12, DiskGB: 8, Units: 8}
	for i := 0; i < b.N; i++ {
		tl := vm.LiveMigrationTimeline(spec, vm.LiveBandwidthMBps, p)
		if tl.Duration <= 0 {
			b.Fatal("degenerate timeline")
		}
	}
}

// BenchmarkTPCWRun measures one 400-EB closed-loop TPC-W simulation.
func BenchmarkTPCWRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tpcw.Run(tpcw.DefaultConfig(400, false, true, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCursorWalk measures a full monotone walk of a generated
// trace through a Cursor (the provider clock's access pattern) versus the
// per-query binary search of BenchmarkTracePriceAtWalk.
func BenchmarkTraceCursorWalk(b *testing.B) {
	set, err := market.Generate(market.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	tr := set.Trace(market.ID{Region: "us-east-1a", Type: "small"})
	step := 5 * sim.Minute
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		c := market.NewCursor(tr)
		for t := sim.Time(0); t < tr.End(); t += step {
			acc += c.PriceAt(t)
		}
	}
	_ = acc
}

// BenchmarkTracePriceAtWalk is the binary-search baseline for
// BenchmarkTraceCursorWalk.
func BenchmarkTracePriceAtWalk(b *testing.B) {
	set, err := market.Generate(market.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	tr := set.Trace(market.ID{Region: "us-east-1a", Type: "small"})
	step := 5 * sim.Minute
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		for t := sim.Time(0); t < tr.End(); t += step {
			acc += tr.PriceAt(t)
		}
	}
	_ = acc
}

// BenchmarkEnvelopeCursorWalk measures a monotone cheapest-market walk over
// the whole universe through the precomputed envelope, versus scanning
// every trace at each step (BenchmarkMarketScanWalk) — the scheduler's
// per-decision loop before the envelope.
func BenchmarkEnvelopeCursorWalk(b *testing.B) {
	set, err := market.Generate(market.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	ids := set.IDs()
	env := set.Envelope(ids, nil)
	if env == nil {
		b.Fatal("nil envelope")
	}
	step := 5 * sim.Minute
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		c := env.Cursor()
		for t := sim.Time(0); t < env.End(); t += step {
			_, p, _ := c.At(t)
			acc += p
		}
	}
	_ = acc
}

// BenchmarkMarketScanWalk is the scan-all-markets baseline for
// BenchmarkEnvelopeCursorWalk.
func BenchmarkMarketScanWalk(b *testing.B) {
	set, err := market.Generate(market.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	ids := set.IDs()
	step := 5 * sim.Minute
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		for t := sim.Time(0); t < set.Horizon(); t += step {
			best := 0.0
			for j, id := range ids {
				if p := set.Trace(id).PriceAt(t); j == 0 || p < best {
					best = p
				}
			}
			acc += best
		}
	}
	_ = acc
}

// BenchmarkCorrelationClosedForm measures the exact segment-merge Pearson
// correlation of two month-long traces (the Fig. 8b/9b statistic).
func BenchmarkCorrelationClosedForm(b *testing.B) {
	set, err := market.Generate(market.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	ta := set.Trace(market.ID{Region: "us-east-1a", Type: "small"})
	tb := set.Trace(market.ID{Region: "us-east-1b", Type: "small"})
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += market.Correlation(ta, tb)
	}
	_ = acc
}

// sweepBenchSpec is the 516-cell grid of BenchmarkSweepGrid and
// BenchmarkSweepGridCold: a dense bid axis (the realistic fine-resolution
// sweep the engine is built for) crossed with the checkpoint bound, over
// three seeds. BenchmarkSweepGrid resolves it with warm-start sharing and
// pruning; BenchmarkSweepGridCold simulates every cell. The ratio of
// their ns/op is the engine's warm-start speedup, which CI's live ratio
// gate bounds from below.
func sweepBenchSpec() sweep.Spec {
	bids := []float64{1.5, 2, 2.5, 3, 3.5}
	for v := 4.0; v <= 12.0; v += 0.1 {
		bids = append(bids, v)
	}
	return sweep.Spec{
		Axes: []sweep.Axis{
			{Knob: sweep.KnobBid, Values: bids},
			{Knob: sweep.KnobTau, Values: []float64{3, 30}},
		},
		Seeds:   []int64{1, 2, 3},
		Home:    market.ID{Region: "us-east-1a", Type: "small"},
		Horizon: 4 * sim.Day,
		Market:  market.DefaultConfig(0),
	}
}

// benchSweep runs spec b.N times and reports resolved cells per second
// over all iterations. The seeds' universes are generated before the
// timer starts, so every iteration pays for the sweep alone.
func benchSweep(b *testing.B, spec sweep.Spec) {
	b.Helper()
	for _, seed := range spec.Seeds {
		mc := spec.Market
		mc.Seed = seed
		if _, err := market.SharedCache().Generate(mc); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		sum, err := sweep.Run(context.Background(), &spec)
		if err != nil {
			b.Fatal(err)
		}
		if spec.Fork && sum.Forked == 0 {
			b.Fatal("fork benchmark resolved no cells by forking")
		}
		cells += sum.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSweepGrid runs the benchmark grid through the sweep engine with
// warm-start sharing and pruning on.
func BenchmarkSweepGrid(b *testing.B) {
	spec := sweepBenchSpec()
	spec.WarmStart = true
	spec.Prune = true
	benchSweep(b, spec)
}

// BenchmarkSweepGridCold is the naive baseline: the same grid with every
// cell simulated from scratch.
func BenchmarkSweepGridCold(b *testing.B) {
	benchSweep(b, sweepBenchSpec())
}

// sweepForkSpec is the fork benchmark grid: a dense checkpoint-bound
// (tau) axis. No whole-horizon oracle can certify two tau cells equal, so
// before forkable checkpoints every one of these cells ran cold. With
// Fork on, each seed runs one checkpointing pilot per family and resumes
// every sibling from the pilot's last quiescent checkpoint before its
// first diverging forced warning — usually near the horizon, so siblings
// simulate only a short tail.
func sweepForkSpec() sweep.Spec {
	var taus []float64
	for v := 1.0; v <= 40; v++ {
		taus = append(taus, v)
	}
	return sweep.Spec{
		Axes:    []sweep.Axis{{Knob: sweep.KnobTau, Values: taus}},
		Seeds:   []int64{1, 2, 3},
		Home:    market.ID{Region: "us-east-1a", Type: "small"},
		Horizon: 4 * sim.Day,
		Market:  market.DefaultConfig(0),
	}
}

// BenchmarkSweepGridFork resolves the 120-cell tau grid with mid-horizon
// forking on (fork=on) and with every cell simulated cold (fork=off). The
// ratio of their ns/op is the fork speedup on this previously
// uncertifiable axis, which CI's live ratio gate bounds from below.
func BenchmarkSweepGridFork(b *testing.B) {
	for _, fork := range []bool{true, false} {
		name := "fork=off"
		if fork {
			name = "fork=on"
		}
		b.Run(name, func(b *testing.B) {
			spec := sweepForkSpec()
			spec.Fork = fork
			benchSweep(b, spec)
		})
	}
}

// BenchmarkFleetMonthCatalog is BenchmarkFleetMonth over the heterogeneous
// instance catalog: the same month of diurnal demand, but the universe is
// widened to the ten default catalog types (40 markets) and the controller
// may fill its unit target with any type at least as powerful as the
// small anchor. Like every fleet-month benchmark, an op is one warm
// month: universe generation and envelope builds stay out of the timing.
func BenchmarkFleetMonthCatalog(b *testing.B) {
	cat := catalog.Default()
	cfg := benchFleetConfig(b)
	cfg.Catalog = cat
	cfg.AnchorType = "small"
	mcfg := market.DefaultConfig(0)
	mcfg.Types = cat.TypeSpecs()
	benchFleetMonths(b, mcfg, cfg, false)
}

// BenchmarkEnvelopeCursorWalk10x walks the capacity-normalized envelope
// over the full typed universe (ten catalog types x four regions, ~10x
// the single-type fleet's candidate set): each candidate's price is
// weighted by 1/units so the envelope yields the cheapest market per
// capacity unit. The per-op cost should stay within a small constant of
// BenchmarkEnvelopeCursorWalk — the walk is O(1) amortized per query in
// the number of markets.
func BenchmarkEnvelopeCursorWalk10x(b *testing.B) {
	cat := catalog.Default()
	mcfg := market.DefaultConfig(1)
	mcfg.Types = cat.TypeSpecs()
	set, err := market.Generate(mcfg)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := cat.CompatibleMarkets(set, "small")
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, len(ids))
	for i, id := range ids {
		e, _ := cat.Lookup(id.Type)
		weights[i] = 1 / float64(e.Units)
	}
	env := set.Envelope(ids, weights)
	if env == nil {
		b.Fatal("nil envelope")
	}
	b.ReportMetric(float64(len(ids)), "markets")
	step := 5 * sim.Minute
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		c := env.Cursor()
		for t := sim.Time(0); t < env.End(); t += step {
			_, p, _ := c.At(t)
			acc += p
		}
	}
	_ = acc
}
