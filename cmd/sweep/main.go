// Command sweep runs a parameter sweep over one scheduler knob and prints
// CSV rows (value, normalized cost, unavailability, forced/hr, migrations)
// suitable for plotting.
//
// Usage:
//
//	sweep -knob bid -values 1.5,2,3,4
//	sweep -knob tau -values 1,3,10,30 -days 30 -seeds 5
//	sweep -knob hysteresis -values 0,0.05,0.15,0.4
//	sweep -knob lambda -values 0,0.5,1,2
//
// Multi-knob grids run through the internal/sweep engine: -grid takes a
// semicolon-separated cross product of axes, and the engine can share
// certified-identical cells (-warm-start), resume sibling cells from a
// pilot's mid-horizon checkpoint (-fork — the only reuse that works on a
// tau axis), and cut dominated configurations early (-prune), reporting
// progress in cells/sec (-progress):
//
//	sweep -grid "bid=1.5,2,2.5,3,4,6,8;tau=3,30" -warm-start -fork -prune -progress
//	sweep -grid "tau=1,3,10,30,60" -fork -progress
//
// It can also run any registered experiment (the same table cmd/paperbench
// and the HTTP API serve) and print its CSV series:
//
//	sweep -experiment fleet -seeds 2 -days 10
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spothost/internal/cli"
	"spothost/internal/cloud"
	"spothost/internal/experiments"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/runpool"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/sweep"
)

var (
	run        = cli.Register(cli.Flags{Seeds: 3, Stride: 23, Days: 30, Parallel: true, Trace: true, ObsOut: "sweep-obs"})
	knob       = flag.String("knob", "bid", "bid | tau | hysteresis | lambda")
	valuesF    = flag.String("values", "", "comma-separated knob values")
	region     = flag.String("region", "us-east-1a", "home region")
	typeF      = flag.String("type", "small", "home instance type")
	fleet      = flag.Int("vms", 0, "fleet size for multi-market knobs (default 4 for hysteresis/lambda)")
	experiment = flag.String("experiment", "", "run a registered experiment by name instead of a knob sweep")
	gridF      = flag.String("grid", "", `multi-knob grid, e.g. "bid=1.5,2,3;tau=3,30" (cross product; uses the sweep engine)`)
	warm       = flag.Bool("warm-start", false, "share one pilot simulation across cells certified identical (grid mode)")
	fork       = flag.Bool("fork", false, "resume sibling cells from the pilot's last checkpoint before their first divergence (grid mode)")
	prune      = flag.Bool("prune", false, "cut configs dominated on every seed so far (grid mode)")
	progress   = flag.Bool("progress", false, "report sweep progress in cells/sec on stderr (grid mode)")
)

func main() {
	run.Parse()
	if *experiment != "" {
		// The same registry behind cmd/paperbench and the HTTP API, so a
		// newly registered experiment is immediately sweepable. Print its
		// CSV series when it exports one, its rendered table otherwise.
		res, err := run.Experiment(*experiment)
		cli.Check(err)
		if exp, ok := res.(experiments.CSVExporter); ok {
			fmt.Print(exp.CSV())
		} else {
			fmt.Println(res.Render())
		}
		cli.Check(run.Export())
		return
	}
	if run.Obs != nil {
		// Knob and grid sweeps run scheduler cells, which have no fleet
		// controller feeding the telemetry layer; only -experiment fleet
		// cells record timelines.
		fmt.Fprintln(os.Stderr, "-obs applies to -experiment runs only; ignoring")
		run.Obs = nil
	}
	if *gridF != "" {
		if run.Trace != nil {
			// The sweep engine takes no trace collector: grid cells
			// run unrecorded.
			fmt.Fprintln(os.Stderr, "-trace applies to knob and -experiment runs only; ignoring")
			run.Trace = nil
		}
		cli.Check(runGrid(run.Context(), os.Stdout, gridOpts{
			Grid:      *gridF,
			Region:    *region,
			Type:      *typeF,
			Days:      run.Days(),
			Seeds:     run.Seeds(),
			Fleet:     *fleet,
			Parallel:  run.Parallel(),
			WarmStart: *warm,
			Fork:      *fork,
			Prune:     *prune,
			Progress:  *progress,
		}))
		return
	}
	cli.Check(runKnob())
	cli.Check(run.Export())
}

// runKnob sweeps -knob over -values and prints one CSV row per value:
// the mean metrics over the seeds.
func runKnob() error {
	values, err := parseValues(*valuesF, *knob)
	if err != nil {
		return err
	}
	days := run.Days()
	mcfg := universe(days)
	home := market.ID{Region: market.Region(*region), Type: market.InstanceType(*typeF)}

	// One (value, seed) grid keeps every worker busy across the whole
	// sweep; rows print in value order once all cells finish.
	cfgs := make([]sched.Config, len(values))
	for i, v := range values {
		if cfgs[i], err = buildConfig(*knob, v, home, *fleet); err != nil {
			return err
		}
	}
	reports, err := runpool.Grid(run.Context(), run.Parallel(), len(values), run.Seeds(), func(ctx context.Context, i int, seed int64) (metrics.Report, error) {
		set, cp, err := cloud.Seeded(mcfg, cloud.DefaultParams(0), seed)
		if err != nil {
			return metrics.Report{}, err
		}
		rec := run.Trace.Run(fmt.Sprintf("%s=%g/seed%d", *knob, values[i], seed))
		rep, err := sched.RunTracedCtx(ctx, set, cp, cfgs[i], days*sim.Day, rec)
		if err == nil {
			run.Trace.Done(rec)
		}
		return rep, err
	})
	if err != nil {
		return err
	}

	fmt.Printf("knob,value,normalized_cost,unavailability,forced_per_hr,voluntary_per_hr,migrations\n")
	for i, v := range values {
		r := metrics.Average(reports[i])
		fmt.Printf("%s,%g,%.5f,%.7f,%.5f,%.5f,%d\n",
			*knob, v, r.NormalizedCost(), r.Unavailability(),
			r.ForcedPerHour(), r.PlannedReversePerHour(), r.Migrations.Total())
	}
	return nil
}

// universe is the synthetic market configuration for a days-long sweep:
// the default universe, stretched when the horizon outruns it.
func universe(days float64) market.Config {
	mcfg := market.DefaultConfig(0)
	if h := days * sim.Day; h > mcfg.Horizon {
		mcfg.Horizon = h
	}
	return mcfg
}

// parseValues parses the -values list, with per-knob defaults.
func parseValues(s, knob string) ([]float64, error) {
	if s == "" {
		switch knob {
		case "bid":
			return []float64{1.5, 2, 3, 4}, nil
		case "tau":
			return []float64{1, 3, 10, 30}, nil
		case "hysteresis":
			return []float64{0, 0.05, 0.15, 0.4}, nil
		case "lambda":
			return []float64{0, 0.5, 1, 2}, nil
		}
		return nil, fmt.Errorf("unknown knob %q", knob)
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// buildConfig applies the knob value to a scheduler config. The grid
// engine owns the knob-to-config mapping now; this keeps the historical
// single-knob entry point.
func buildConfig(knob string, v float64, home market.ID, fleet int) (sched.Config, error) {
	return sweep.BuildConfig(home, fleet, []sweep.Setting{{Knob: knob, Value: v}})
}

// gridOpts carries the flag values of a -grid run.
type gridOpts struct {
	Grid         string
	Region, Type string
	Days         float64
	Seeds        []int64
	Fleet        int
	Parallel     int
	WarmStart    bool
	Fork         bool
	Prune        bool
	Progress     bool
}

// runGrid executes a multi-knob grid through the sweep engine and prints
// one CSV row per grid point: the knob values, the mean metrics over the
// seeds the point ran, how its cells were resolved — so neither sharing,
// forking, nor pruning is ever silent — the pilot point that fed any
// reused cells, the mean fork-resume time in days (fork_at, blank when the
// point never forked), and whether the point was cut and which point
// dominated it. An aggregate cell-accounting line (cold / shared / forked
// / pruned) always goes to stderr.
func runGrid(ctx context.Context, w io.Writer, o gridOpts) error {
	axes, err := sweep.ParseGrid(o.Grid)
	if err != nil {
		return err
	}
	spec := sweep.Spec{
		Axes:      axes,
		Seeds:     o.Seeds,
		Home:      market.ID{Region: market.Region(o.Region), Type: market.InstanceType(o.Type)},
		FleetSize: o.Fleet,
		Horizon:   o.Days * sim.Day,
		Market:    universe(o.Days),
		Workers:   o.Parallel,
		WarmStart: o.WarmStart,
		Fork:      o.Fork,
		Prune:     o.Prune,
	}
	if o.Progress {
		spec.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells (%.0f cells/s, %d simulated, %d shared, %d forked, %d pruned)   ",
				p.Done, p.Total, p.CellsPerSec(), p.Simulated, p.Shared, p.Forked, p.PrunedCells)
		}
	}
	sum, err := sweep.Run(ctx, &spec)
	if o.Progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}

	for _, ax := range axes {
		fmt.Fprintf(w, "%s,", ax.Knob)
	}
	fmt.Fprintf(w, "normalized_cost,unavailability,forced_per_hr,voluntary_per_hr,migrations,seeds,pilot,fork_at,pruned,dominated_by\n")
	for _, res := range sum.Results {
		for _, v := range res.Values {
			fmt.Fprintf(w, "%g,", v)
		}
		r := res.Mean
		pilot := ""
		if res.Pilot >= 0 && res.Pilot != res.Point {
			pilot = fmt.Sprintf("%d", res.Pilot)
		}
		forkAt := ""
		if res.ForkedSeeds > 0 {
			forkAt = fmt.Sprintf("%.3f", res.MeanForkAt/sim.Day)
		}
		dom := ""
		if res.Pruned {
			dom = fmt.Sprintf("%d", res.DominatedBy)
		}
		fmt.Fprintf(w, "%.5f,%.7f,%.5f,%.5f,%d,%d,%s,%s,%v,%s\n",
			r.NormalizedCost(), r.Unavailability(),
			r.ForcedPerHour(), r.PlannedReversePerHour(), r.Migrations.Total(),
			res.SeedsRun, pilot, forkAt, res.Pruned, dom)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells = %d simulated + %d shared + %d forked + %d pruned (%d configs cut) in %v (%.0f cells/s)\n",
		sum.Cells, sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells, sum.PrunedConfigs,
		sum.Elapsed.Round(time.Millisecond), sum.CellsPerSec())
	return nil
}
