package main

// The typed-fleet workload: batch 30-day fleet months over the default
// instance catalog (10 types x 4 regions = 40 markets) with capacity
// anchored on "small", for every strategy over a fixed pool of twelve
// universes, fanned out through fleet.RunSeedsParallelCtx with nproc
// workers. Universes are generated during set-up; telemetry and tracing
// are off.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/runpool"
	"spothost/internal/sim"
)

const (
	typedHorizon = 30 * sim.Day
	typedAnchor  = "small"
	// typedChunk is how many universes one timed batch runs: small enough
	// that a run holds well over a hundred batches, so the p90 batch time
	// has more than ten batches beyond it.
	typedChunk = 4
	// typedDigest is the stored digest of every report of a run: a change
	// that moves any report fails the check.
	typedDigest = "0b4a5d44367459144749f281ef26eb27d4dcc398521c1c82027d1e5746a3d3d0"
)

// typedUniverses are the market seeds every batch runs on. They do not
// vary with --seed: a month's cost depends strongly on its universe, and
// seed-drawn pools moved the batch times by a fifth between seeds. The
// seed picks the month the serial check re-runs.
var typedUniverses = []int64{851283, 988752, 356894, 883716, 451282, 878809, 393247, 316053, 591777, 912282, 482565, 607784}

// typedConfig is BenchmarkFleetMonthCatalog's fleet under one strategy;
// catalog=false gives the same fleet without a catalog.
func typedConfig(strategy fleet.Strategy, withCatalog bool) (fleet.Config, error) {
	demand, err := fleet.NewDiurnalDemand(fleet.DefaultDiurnalConfig(typedHorizon, 0))
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Strategy: strategy,
		Demand:   demand,
		Planner:  fleet.LinearPlanner{PerReplica: 6},
	}
	if withCatalog {
		cfg.Catalog = catalog.Default()
		cfg.AnchorType = typedAnchor
	}
	return cfg, nil
}

func typedMarketConfig(withCatalog bool) market.Config {
	mcfg := market.DefaultConfig(0)
	if withCatalog {
		mcfg.Types = catalog.Default().TypeSpecs()
	}
	return mcfg
}

// generateAll fills the shared cache with every seed's universe using
// nproc workers and returns the per-universe generation times.
func generateAll(ctx context.Context, mcfg market.Config, seeds []int64, workers int) ([]float64, error) {
	return runpool.MapCtx(ctx, workers, seeds, func(_ context.Context, _ int, seed int64) (float64, error) {
		mc := mcfg
		mc.Seed = seed
		t0 := time.Now()
		_, err := market.SharedCache().Generate(mc)
		return ms(time.Since(t0)), err
	})
}

func digestReports(reps []fleet.Report) (string, error) {
	b, err := json.Marshal(reps)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func runTyped(o opts) (*outcome, error) {
	ctx := context.Background()
	seeds := typedUniverses
	mcfg := typedMarketConfig(true)
	var genMS []float64
	setupS, err := setupMetric(o.setupCal, market.SharedCache().Purge, func() error {
		var err error
		genMS, err = generateAll(ctx, mcfg, seeds, o.workers)
		return err
	})
	if err != nil {
		return nil, err
	}

	strategies := fleet.Strategies()
	cfgs := make([]fleet.Config, len(strategies))
	for i, st := range strategies {
		if cfgs[i], err = typedConfig(st, true); err != nil {
			return nil, err
		}
	}
	cp := cloud.DefaultParams(0)

	// Timed phase: whole cycles of batches until the time is up; a batch is
	// one strategy over typedChunk universes, and a cycle runs every
	// strategy over every universe. In a traced run every other cycle
	// carries spans, for the overhead figure.
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	chunks := len(seeds) / typedChunk
	perCycle := len(strategies) * chunks
	var batchMS, tracedMS, plainMS []float64
	first := make([][]fleet.Report, perCycle)
	months, batches := 0, 0
	var mismatch error
	t0 := time.Now()
	for time.Since(t0).Seconds() < o.seconds || batches%perCycle != 0 {
		j := batches % perCycle
		i, c := j/chunks, j%chunks
		chunk := seeds[c*typedChunk : (c+1)*typedChunk]
		traced := o.traced && (batches/perCycle)%2 == 1
		o.cal.sample(1)
		id := 0
		if traced {
			id = tr.begin("fleet.batch", 0, strategies[i].Name())
		}
		b0 := time.Now()
		reps, err := fleet.RunSeedsParallelCtx(ctx, mcfg, cp, cfgs[i], typedHorizon, chunk, o.workers)
		d := ms(time.Since(b0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		batchMS = append(batchMS, d)
		if traced {
			tracedMS = append(tracedMS, d)
		} else {
			plainMS = append(plainMS, d)
		}
		if first[j] == nil {
			first[j] = reps
		} else if mismatch == nil {
			if a, b := mustDigest(first[j]), mustDigest(reps); a != b {
				mismatch = fmt.Errorf("strategy %s: repeated batch reports differ", strategies[i].Name())
			}
		}
		months += len(reps)
		batches++
	}
	// The calibration between batches is not part of the timed work.
	var elapsed float64
	for _, d := range batchMS {
		elapsed += d / 1000
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: months, failed: 0}
	out.checkErr = mismatch
	if out.checkErr == nil {
		byStrategy := make([][]fleet.Report, len(strategies))
		for j, reps := range first {
			byStrategy[j/chunks] = append(byStrategy[j/chunks], reps...)
		}
		out.checkErr = typedChecks(ctx, o, byStrategy, strategies, cfgs, mcfg, seeds)
	}
	throughput := float64(months) / elapsed
	out.e2e = e2eMetrics(o, o.cal.slowdown(), o.cal.slowdown(), setupS, rss, throughput, batchMS)
	out.named = []namedValue{
		{"setup_s", setupS, "s", fmt.Sprintf("%d universes, %d workers", len(seeds), o.workers)},
		{"peak_rss_mb", rss, "MB", ""},
		{"failed_frac", 0, "ratio", fmt.Sprintf("0 of %d runs", months)},
		{"fleet_months_per_s", throughput, "1/s", fmt.Sprintf("%d months in %.1f s", months, elapsed)},
		{"batch_p50_ms", median(batchMS), "ms", fmt.Sprintf("%d universes per batch, n=%d", typedChunk, len(batchMS))},
		{"generate_ms_per_universe", median(genMS), "ms", ""},
	}
	if !o.traced {
		return out, nil
	}
	vals, err := typedLayers(ctx, o, tr, strategies, cfgs, seeds, genMS)
	if err != nil {
		return nil, err
	}
	vals["bench.tracing_overhead_frac"] = median(tracedMS)/median(plainMS) - 1
	out.layers = layerSet(vals)
	return out, nil
}

func mustDigest(reps []fleet.Report) string {
	d, err := digestReports(reps)
	if err != nil {
		panic(err)
	}
	return d
}

// typedChecks compares the run's reports with the stored digest and
// re-runs one seed-picked (strategy, universe) month serially, which must
// match the parallel result byte for byte.
func typedChecks(ctx context.Context, o opts, first [][]fleet.Report, strategies []fleet.Strategy,
	cfgs []fleet.Config, mcfg market.Config, seeds []int64) error {
	var all []fleet.Report
	for _, reps := range first {
		if reps == nil {
			return fmt.Errorf("the timed phase did not cover every strategy; raise --seconds")
		}
		all = append(all, reps...)
	}
	d, err := digestReports(all)
	if err != nil {
		return err
	}
	if d != typedDigest {
		return fmt.Errorf("report digest %s differs from the stored %s", d, typedDigest)
	}

	si := int(o.seed % int64(len(strategies)))
	if si < 0 {
		si += len(strategies)
	}
	k := int(o.seed % int64(len(seeds)))
	if k < 0 {
		k += len(seeds)
	}
	mc := mcfg
	mc.Seed = seeds[k]
	set, err := market.SharedCache().Generate(mc)
	if err != nil {
		return err
	}
	cp := cloud.DefaultParams(seeds[k])
	rep, err := fleet.RunCtx(ctx, set, cp, cfgs[si], typedHorizon)
	if err != nil {
		return err
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(first[si][k])
	if string(a) != string(b) {
		return fmt.Errorf("serial re-run of %s seed %d differs from the parallel batch", strategies[si].Name(), seeds[k])
	}
	return nil
}

// typedLayers is the traced run's breakdown, on one goroutine: envelope
// builds over three fresh universes, then each strategy's months on four
// seeds, typed and without a catalog.
func typedLayers(ctx context.Context, o opts, tr *tracer, strategies []fleet.Strategy,
	cfgs []fleet.Config, seeds []int64, genMS []float64) (map[string]float64, error) {
	vals := map[string]float64{"market.generate_ms": median(genMS)}
	cat := catalog.Default()
	single := typedMarketConfig(false)
	if _, err := generateAll(ctx, single, seeds, o.workers); err != nil {
		return nil, err
	}
	root := tr.begin("bench.typed_pass", 0, "")

	// Envelope builds: fresh universes, so the per-Set memo is empty.
	var env []float64
	for _, seed := range seeds[:3] {
		mc := typedMarketConfig(true)
		mc.Seed = seed
		var set *market.Set
		var err error
		tr.do("market.generate", root, func() { set, err = market.Generate(mc) })
		if err != nil {
			return nil, err
		}
		ids, err := cat.CompatibleMarkets(set, typedAnchor)
		if err != nil {
			return nil, err
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
		weights := make([]float64, len(ids))
		for i, id := range ids {
			e, _ := cat.Lookup(id.Type)
			weights[i] = e.InvUnits()
		}
		t0 := time.Now()
		tr.do("market.envelope_build", root, func() { set.Envelope(ids, weights) })
		env = append(env, ms(time.Since(t0)))
	}
	vals["market.envelope_build_ms"] = median(env)

	// Months, typed and single-type, serially, over cached universes.
	var typedMS, ratios []float64
	var launches, rebal, lost float64
	for i, st := range strategies {
		scfg, err := typedConfig(st, false)
		if err != nil {
			return nil, err
		}
		for _, seed := range seeds[:4] {
			run := func(mcfg market.Config, cfg fleet.Config, name string) (fleet.Report, float64, error) {
				mcfg.Seed = seed
				set, err := market.SharedCache().Generate(mcfg)
				if err != nil {
					return fleet.Report{}, 0, err
				}
				var rep fleet.Report
				t0 := time.Now()
				tr.do(name, root, func() { rep, err = fleet.RunCtx(ctx, set, cloud.DefaultParams(seed), cfg, typedHorizon) })
				return rep, ms(time.Since(t0)), err
			}
			rep, tm, err := run(typedMarketConfig(true), cfgs[i], "fleet.month")
			if err != nil {
				return nil, err
			}
			_, sm, err := run(single, scfg, "fleet.month_single")
			if err != nil {
				return nil, err
			}
			typedMS = append(typedMS, tm)
			ratios = append(ratios, tm/sm)
			launches += float64(rep.Launches)
			rebal += float64(rep.Rebalances)
			lost += float64(rep.ReplicasLost)
		}
	}
	tr.end(root)
	n := float64(len(typedMS))
	vals["fleet.month_ms"] = median(typedMS)
	vals["fleet.typed_over_single"] = median(ratios)
	vals["fleet.typed_over_single_iqr"] = quantile(ratios, 0.75) - quantile(ratios, 0.25)
	vals["fleet.launches_per_month"] = launches / n
	vals["fleet.rebalances_per_month"] = rebal / n
	vals["fleet.replicas_lost_per_month"] = lost / n
	vals["bench.self_time_coverage"] = printSelfTable(tr, root, "typed-fleet serial pass")
	vals["bench.traced_total_ms"] = ms(tr.spans[root-1].dur())
	path, err := tr.write(o.outDir, fmt.Sprintf("spans-typed-fleet-%d.jsonl", o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return vals, nil
}
