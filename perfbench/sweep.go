package main

// The sweep workload: the paper's single-VM proactive scheduler through
// sweep.Run with WarmStart, Fork and Prune over three grids, so every
// resolution route carries work — bid x lambda shares cells, tau x lambda
// forks them, and hysteresis x lambda mostly simulates cells cold and
// prunes the rest.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/sweep"
)

const (
	sweepHorizon = 30 * sim.Day
	// sweepSample is how many shared and how many forked cells per grid
	// the check re-simulates cold; sweepColdSample is how many simulated
	// cells per grid the traced run times.
	sweepSample     = 3
	sweepColdSample = 4
)

var sweepHome = market.ID{Region: "us-east-1a", Type: "small"}

// sweepUniverses are the market seeds every grid runs on, in this order:
// cmd/sweep's defaults extended to four. The sweep's inputs do not vary
// with --seed, because how many cells share, fork or prune depends on
// the universes and on their order (order steers pruning): a seed-drawn
// set moved cells_per_s by a third between seeds, a seed-drawn order by
// a sixth, and the route mix is what this workload measures.
var sweepUniverses = []int64{23, 46, 69, 92}

// sweepGrids are the three grids, sized so no single route dominates the
// pass.
var sweepGrids = []struct{ name, spec string }{
	{"bid", "bid=" + steps(1.5, 12, 0.5) + ";lambda=0,0.25,0.5,0.75,1"},
	{"tau", "tau=" + steps(1, 40, 2) + ";lambda=0,0.25,0.5,0.75,1"},
	{"hysteresis", "hysteresis=" + steps(0, 0.5, 0.1) + ";lambda=0,0.25,0.5,0.75,1"},
}

// steps renders lo, lo+step, ..., up to hi as a grid value list.
func steps(lo, hi, step float64) string {
	var vals []string
	for i := 0; ; i++ {
		v := lo + float64(i)*step
		if v > hi+1e-9 {
			break
		}
		vals = append(vals, strconv.FormatFloat(v, 'f', -1, 64))
	}
	return strings.Join(vals, ",")
}

// gridRun is one sweep.Run of one grid, with the cells the check samples.
type gridRun struct {
	grid    int
	sum     *sweep.Summary
	wall    time.Duration
	samples []sweep.Cell // shared and forked cells to re-simulate
	cold    []sweep.Cell // simulated cells, for the traced cold timing
	counts  [4]int       // simulated, shared, forked, pruned
	migr    float64      // migrations summed over resolved cells
	ckptGB  float64      // checkpoint GB summed over resolved cells
	cells   int          // resolved (non-pruned) cells
	forkAt  []float64    // ForkAt / horizon of forked cells
}

func runGrid(ctx context.Context, spec sweep.Spec, grid int) (*gridRun, error) {
	axes, err := sweep.ParseGrid(sweepGrids[grid].spec)
	if err != nil {
		return nil, err
	}
	spec.Axes = axes
	gr := &gridRun{grid: grid}
	var shared, forked int
	spec.OnCell = func(c sweep.Cell) {
		gr.cells++
		gr.migr += float64(c.Report.Migrations.Total())
		gr.ckptGB += c.Report.CheckpointGB
		switch {
		case c.Forked:
			gr.forkAt = append(gr.forkAt, c.ForkAt/sweepHorizon)
			if forked < sweepSample {
				forked++
				gr.samples = append(gr.samples, c)
			}
		case c.Shared:
			if shared < sweepSample {
				shared++
				gr.samples = append(gr.samples, c)
			}
		default:
			if len(gr.cold) < sweepColdSample {
				gr.cold = append(gr.cold, c)
			}
		}
	}
	t0 := time.Now()
	sum, err := sweep.Run(ctx, &spec)
	gr.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	gr.sum = sum
	gr.counts = [4]int{sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells}
	return gr, nil
}

func runSweep(o opts) (*outcome, error) {
	ctx := context.Background()
	seeds := sweepUniverses
	mcfg := market.DefaultConfig(0)
	setupS, err := setupMetric(o.setupCal, market.SharedCache().Purge, func() error {
		_, err := generateAll(ctx, mcfg, seeds, o.workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	spec := sweep.Spec{
		Seeds:     seeds,
		Home:      sweepHome,
		Horizon:   sweepHorizon,
		Market:    mcfg,
		Workers:   o.workers,
		WarmStart: true,
		Fork:      true,
		Prune:     true,
	}

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var gridMS, tracedMS, plainMS []float64
	firstPass := make([]*gridRun, len(sweepGrids))
	cells, runs := 0, 0
	var mismatch error
	t0 := time.Now()
	for time.Since(t0).Seconds() < o.seconds || runs%len(sweepGrids) != 0 {
		g := runs % len(sweepGrids)
		traced := o.traced && (runs/len(sweepGrids))%2 == 1
		o.cal.sample(3)
		id := 0
		if traced {
			id = tr.begin("sweep.grid", 0, sweepGrids[g].name)
		}
		gr, err := runGrid(ctx, spec, g)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		gridMS = append(gridMS, ms(gr.wall))
		if traced {
			tracedMS = append(tracedMS, ms(gr.wall))
		} else {
			plainMS = append(plainMS, ms(gr.wall))
		}
		if firstPass[g] == nil {
			firstPass[g] = gr
		} else if gr.counts != firstPass[g].counts && mismatch == nil {
			mismatch = fmt.Errorf("grid %s: route counts %v differ from the first pass %v", sweepGrids[g].name, gr.counts, firstPass[g].counts)
		}
		cells += gr.sum.Cells
		runs++
	}
	// The calibration between grid runs is not part of the timed work.
	var elapsed float64
	for _, d := range gridMS {
		elapsed += d / 1000
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: cells}
	out.checkErr = mismatch
	if out.checkErr == nil {
		out.checkErr = sweepChecks(ctx, firstPass)
	}
	throughput := float64(cells) / elapsed
	out.e2e = e2eMetrics(o, o.cal.slowdown(), o.cal.slowdown(), setupS, rss, throughput, gridMS)
	out.named = []namedValue{
		{"setup_s", setupS, "s", fmt.Sprintf("%d universes", len(seeds))},
		{"peak_rss_mb", rss, "MB", ""},
		{"failed_frac", 0, "ratio", fmt.Sprintf("0 of %d cells", cells)},
		{"cells_per_s", throughput, "1/s", fmt.Sprintf("%d cells in %.1f s, %d grid runs", cells, elapsed, runs)},
	}
	for g, gr := range firstPass {
		out.named = append(out.named, namedValue{
			"grid_" + sweepGrids[g].name + "_ms", ms(gr.wall), "ms",
			fmt.Sprintf("%d cells: %d simulated / %d shared / %d forked / %d pruned",
				gr.sum.Cells, gr.counts[0], gr.counts[1], gr.counts[2], gr.counts[3]),
		})
	}
	if !o.traced {
		return out, nil
	}
	vals, err := sweepLayers(ctx, o, tr, firstPass)
	if err != nil {
		return nil, err
	}
	vals["bench.tracing_overhead_frac"] = median(tracedMS)/median(plainMS) - 1
	out.layers = layerSet(vals)
	return out, nil
}

// resimulate runs a cell cold through sched.RunCtx, as the sweep runner
// would for a cell it neither shares nor forks.
func resimulate(ctx context.Context, gr *gridRun, c sweep.Cell) ([]byte, error) {
	mc := market.DefaultConfig(c.Seed)
	set, err := market.SharedCache().Generate(mc)
	if err != nil {
		return nil, err
	}
	cp := cloud.DefaultParams(0)
	cp.Seed = c.Seed
	rep, err := sched.RunCtx(ctx, set, cp, gr.sum.Plan.Points[c.Point].Config, sweepHorizon)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// sweepChecks verifies the route accounting of every grid and re-simulates
// the sampled shared and forked cells cold: each must match byte for byte.
func sweepChecks(ctx context.Context, grids []*gridRun) error {
	for _, gr := range grids {
		s := gr.sum
		if s.Simulated+s.Shared+s.Forked+s.PrunedCells != s.Cells {
			return fmt.Errorf("grid %s: %d simulated + %d shared + %d forked + %d pruned != %d cells",
				sweepGrids[gr.grid].name, s.Simulated, s.Shared, s.Forked, s.PrunedCells, s.Cells)
		}
		for _, c := range gr.samples {
			cold, err := resimulate(ctx, gr, c)
			if err != nil {
				return err
			}
			got, err := json.Marshal(c.Report)
			if err != nil {
				return err
			}
			if string(got) != string(cold) {
				return fmt.Errorf("grid %s point %d seed %d: %s report differs from a cold run",
					sweepGrids[gr.grid].name, c.Point, c.Seed, map[bool]string{true: "forked", false: "shared"}[c.Forked])
			}
		}
	}
	return nil
}

// sweepLayers is the traced run's breakdown: cold scheduler cells timed
// serially, route counts and per-cell figures from the first pass, and the
// sweep engine's own time as grid wall time minus the simulated cells'
// estimated share.
func sweepLayers(ctx context.Context, o opts, tr *tracer, grids []*gridRun) (map[string]float64, error) {
	vals := map[string]float64{}
	var cold []float64
	var migr, cells, ckpt, tauCells float64
	var forkAt []float64
	var counts [4]int
	var wall time.Duration
	for _, gr := range grids {
		for _, c := range gr.cold {
			t0 := time.Now()
			if _, err := resimulate(ctx, gr, c); err != nil {
				return nil, err
			}
			cold = append(cold, ms(time.Since(t0)))
		}
		migr += gr.migr
		cells += float64(gr.cells)
		if sweepGrids[gr.grid].name == "tau" {
			ckpt += gr.ckptGB
			tauCells += float64(gr.cells)
		}
		forkAt = append(forkAt, gr.forkAt...)
		for i := range counts {
			counts[i] += gr.counts[i]
		}
		wall += gr.wall
	}
	coldMS := median(cold)
	schedMS := float64(counts[0]) * coldMS / float64(o.workers)
	vals["sched.cold_cell_ms"] = coldMS
	vals["sched.migrations_per_cell"] = migr / cells
	vals["vm.checkpoint_gb_per_cell"] = ckpt / tauCells
	vals["sweep.cells_simulated"] = float64(counts[0])
	vals["sweep.cells_shared"] = float64(counts[1])
	vals["sweep.cells_forked"] = float64(counts[2])
	vals["sweep.cells_pruned"] = float64(counts[3])
	vals["sweep.fork_skip_frac"] = mean(forkAt)
	vals["sweep.self_ms"] = ms(wall) - schedMS

	// The engine runs scheduler cells on its own workers, out of the
	// benchmark's reach, so the first pass splits by estimate: simulated
	// cells x cold_cell_ms / workers to sched, the rest to sweep.
	schedD := time.Duration(schedMS * float64(time.Millisecond))
	rows := map[string]time.Duration{"sched": schedD, "sweep": wall - schedD}
	vals["bench.self_time_coverage"] = printRows("sweep first pass (estimated split)", rows, wall, 0)
	vals["bench.traced_total_ms"] = ms(wall)
	path, err := tr.write(o.outDir, fmt.Sprintf("spans-sweep-%d.jsonl", o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return vals, nil
}
