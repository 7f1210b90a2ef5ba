package sched

import (
	"context"
	"fmt"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/runpool"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Run wires up an engine, a provider over the given price set, and a
// scheduler, runs the simulation to the horizon (clamped to the traces'
// common extent), and returns the run report.
func Run(set *market.Set, cloudParams cloud.Params, cfg Config, horizon sim.Duration) (metrics.Report, error) {
	return RunCtx(context.Background(), set, cloudParams, cfg, horizon)
}

// RunCtx is Run under a context: the engine polls ctx every
// sim.CancelPollInterval events and the run returns ctx's error as soon as
// it is canceled, discarding the partial report. A canceled month-long
// simulation aborts within one poll batch — milliseconds — rather than
// running to its horizon.
func RunCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration) (metrics.Report, error) {
	return RunTracedCtx(ctx, set, cloudParams, cfg, horizon, nil)
}

// RunTracedCtx is RunCtx with a trace recorder attached to the run's
// engine: every layer sharing the engine (provider billing, scheduler
// migrations) records into it, and the checkpoint daemon's writes, folded
// by the end-of-run Report, feed its checkpoint histogram before
// RunTracedCtx returns. A nil recorder is exactly RunCtx — the untraced
// path adds no allocations (see BenchmarkSchedulerMonthTraced).
func RunTracedCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration, rec *trace.Recorder) (metrics.Report, error) {

	eng, s, horizon, err := build(set, cloudParams, cfg, horizon, rec)
	if err != nil {
		return metrics.Report{}, err
	}
	s.Start()
	if err := eng.RunUntilCtx(ctx, horizon); err != nil {
		return metrics.Report{}, err
	}
	rec.CloseOpen(eng.Now())
	return s.Report(), nil
}

// build wires one run's engine (recording into rec), provider and
// scheduler, and clamps horizon to the traces' extent. The scheduler is
// not started, so a caller can arm its own events first.
func build(set *market.Set, cloudParams cloud.Params, cfg Config, horizon sim.Duration,
	rec *trace.Recorder) (*sim.Engine, *Scheduler, sim.Duration, error) {

	eng := sim.NewEngine()
	eng.SetRecorder(rec)
	s, err := New(cloud.NewProvider(eng, set, cloudParams), cfg)
	return eng, s, set.ClampHorizon(horizon), err
}

// RunSeedsTracedCtx runs every configuration against synthetic universes
// for each seed (the market config's and the default cloud parameters'
// Seed fields are overridden per run, see cloud.Seeded) and returns the
// reports indexed [config][seed], seeds in order. The (config, seed) cells
// fan out over one runpool.Grid with at most workers in flight (workers
// <= 0 means one per CPU), so the reports are byte-identical for any
// worker count, and canceling ctx (or any cell failing) cancels every
// in-flight run. Each cell records into its own recorder from col,
// labeled prefixes[c] + "seed<N>" (no prefix when prefixes is nil); a nil
// collector traces nothing.
func RunSeedsTracedCtx(ctx context.Context, mcfg market.Config, cfgs []Config, prefixes []string,
	horizon sim.Duration, seeds []int64, workers int, col *trace.Collector) ([][]metrics.Report, error) {

	if len(seeds) == 0 {
		return nil, fmt.Errorf("sched: no seeds")
	}
	if prefixes != nil && len(prefixes) != len(cfgs) {
		return nil, fmt.Errorf("sched: %d label prefixes for %d configs", len(prefixes), len(cfgs))
	}
	return runpool.Grid(ctx, workers, len(cfgs), seeds, func(ctx context.Context, c int, seed int64) (metrics.Report, error) {
		set, cp, err := cloud.Seeded(mcfg, cloud.DefaultParams(0), seed)
		if err != nil {
			return metrics.Report{}, err
		}
		label := fmt.Sprintf("seed%d", seed)
		if prefixes != nil {
			label = prefixes[c] + label
		}
		rec := col.Run(label)
		rep, err := RunTracedCtx(ctx, set, cp, cfgs[c], horizon, rec)
		if err == nil {
			col.Done(rec)
		}
		return rep, err
	})
}
