// Package cli owns the run flags the experiment commands (paperbench,
// fleet, sweep, spotsim) share: -quick, -seeds, -days, -parallel,
// -trace, -trace-format, -obs and -obs-out. A command registers the
// subset it takes, and the package turns them into a seed list and
// experiments.Options, creates the trace and obs collectors, writes
// their exports after the run, and applies one exit policy: 130 when the
// run was interrupted, 2 for a usage error, 1 for any other error.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"spothost/internal/experiments"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Flags selects the run flags a command registers and their defaults.
// Every command takes -seeds and -days.
type Flags struct {
	// Quick registers -quick: experiments.Quick in place of Defaults.
	Quick bool
	// Seeds is the -seeds default. Zero makes -seeds an optional
	// override of the experiment's own seed list, taking 0 (keep it) or
	// 1-16, the HTTP API's limit; a positive default makes it a count of
	// at least 1.
	Seeds int
	// Stride spaces the generated seeds: seed i, counting from 1, is
	// Stride*i.
	Stride int64
	// Days is the -days default; zero keeps the experiment's horizon.
	Days float64
	// Parallel registers -parallel.
	Parallel bool
	// Trace registers -trace and -trace-format.
	Trace bool
	// ObsOut, when set, registers -obs and -obs-out with this default
	// output prefix.
	ObsOut string
}

// Run is a command's run flags and the collectors they asked for.
type Run struct {
	// Trace and Obs are the collectors -trace and -obs asked for, nil
	// otherwise. A command that cannot feed one sets it to nil after
	// warning; Export writes whichever remain.
	Trace *trace.Collector
	Obs   *obs.Collector

	f                      Flags
	quick, obsOn           *bool
	seeds, parallel        *int
	days                   *float64
	tracePath, traceFormat *string
	obsOut                 *string
	ctx                    context.Context
}

// Register declares the flags f selects on the command line. The
// command declares its own flags as well, then calls Parse.
func Register(f Flags) *Run {
	r := &Run{f: f, quick: new(bool), obsOn: new(bool), parallel: new(int), tracePath: new(string)}
	if f.Quick {
		r.quick = flag.Bool("quick", false, "reduced seeds and horizon for a fast smoke run")
	}
	if f.Seeds == 0 {
		r.seeds = flag.Int("seeds", 0, "override the number of seeds (1-16)")
	} else {
		r.seeds = flag.Int("seeds", f.Seeds, "seeds to average over")
	}
	if f.Days == 0 {
		r.days = flag.Float64("days", 0, "override the horizon in days")
	} else {
		r.days = flag.Float64("days", f.Days, "horizon in days")
	}
	if f.Parallel {
		r.parallel = flag.Int("parallel", 0, "worker count for simulation cells; 0 means GOMAXPROCS")
	}
	if f.Trace {
		r.tracePath = flag.String("trace", "", "write a run trace of every simulation cell to this file")
		r.traceFormat = flag.String("trace-format", "chrome", "trace export format: chrome (Perfetto trace_event JSON) | jsonl")
	}
	if f.ObsOut != "" {
		r.obsOn = flag.Bool("obs", false, "collect simulated-time telemetry (timelines, decision ledger, SLO alerts) for every fleet cell; composes with -trace")
		r.obsOut = flag.String("obs-out", f.ObsOut, "output prefix for -obs: writes <prefix>-timeline.csv and <prefix>-ledger.ndjson")
	}
	return r
}

// Parse parses the command line. A -seeds value out of range gets the
// flag package's treatment of a bad flag: a message, the usage text and
// exit status 2. Parse then creates the collectors -trace and -obs ask
// for, and arms the run context to cancel on SIGINT or SIGTERM.
func (r *Run) Parse() {
	flag.Parse()
	lo, hi, want := 1, math.MaxInt, "want at least 1"
	if r.f.Seeds == 0 {
		lo, hi, want = 0, 16, "want 1-16, or 0 for the defaults"
	}
	if n := *r.seeds; n < lo || n > hi {
		fmt.Fprintf(flag.CommandLine.Output(), "invalid value %d for flag -seeds: %s\n", n, want)
		flag.Usage()
		os.Exit(2)
	}
	if *r.tracePath != "" {
		r.Trace = trace.NewCollector()
	}
	if *r.obsOn {
		r.Obs = obs.NewCollector(obs.Config{})
	}
	// The handler stays installed for the life of the command, which
	// exits once the cancelled run returns.
	r.ctx, _ = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Context is cancelled by the first SIGINT or SIGTERM.
func (r *Run) Context() context.Context { return r.ctx }

// Days is the -days value.
func (r *Run) Days() float64 { return *r.days }

// Parallel is the -parallel worker count; 0 means GOMAXPROCS.
func (r *Run) Parallel() int { return *r.parallel }

// Seeds returns -seeds seeds spaced by the stride; nil when an optional
// -seeds was left at 0.
func (r *Run) Seeds() []int64 {
	var seeds []int64
	for i := 1; i <= *r.seeds; i++ {
		seeds = append(seeds, r.f.Stride*int64(i))
	}
	return seeds
}

// Options builds experiment options from the run flags: experiments.Quick
// or Defaults, overridden by -seeds, -days and -parallel, with the run
// context and the unscoped collectors.
func (r *Run) Options() experiments.Options {
	opts := experiments.Defaults()
	if *r.quick {
		opts = experiments.Quick()
	}
	if seeds := r.Seeds(); seeds != nil {
		opts.Seeds = seeds
	}
	if *r.days > 0 {
		opts.Horizon = *r.days * sim.Day
		opts.Market.Horizon = opts.Horizon
	}
	opts.Parallel = *r.parallel
	opts.Context = r.ctx
	opts.Trace, opts.Obs = r.Trace, r.Obs
	return opts
}

// Experiment runs the registered experiment called name with Options, its
// collectors scoped by the name so the runs of several experiments stay
// apart in one export. An unknown name is a usage error that lists the
// registered ones.
func (r *Run) Experiment(name string) (experiments.Renderer, error) {
	e, ok := experiments.Find(name)
	if !ok {
		var names []string
		for _, e := range experiments.All() {
			names = append(names, e.Name)
		}
		return nil, Usagef("unknown experiment %q; registered: %s", name, strings.Join(names, ", "))
	}
	opts := r.Options()
	opts.Trace, opts.Obs = r.Trace.Scope(name), r.Obs.Scope(name)
	return e.Run(opts)
}

// Export writes the trace and obs exports still requested, naming each
// file on stderr.
func (r *Run) Export() error {
	if r.Trace != nil {
		f, err := os.Create(*r.tracePath)
		if err != nil {
			return err
		}
		if err := r.Trace.Export(f, *r.traceFormat); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *r.tracePath)
	}
	if r.Obs != nil {
		if err := r.Obs.WriteFiles(*r.obsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s-timeline.csv and %s-ledger.ndjson\n", *r.obsOut, *r.obsOut)
	}
	return nil
}

// usageError is an error in how the command was invoked.
type usageError string

func (e usageError) Error() string { return string(e) }

// Usagef formats a usage error, which Check exits with status 2.
func Usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// Check returns when err is nil and otherwise ends the command, printing
// err: exit status 130 when the run was interrupted, 2 for a usage
// error, 1 for anything else.
func Check(err error) {
	var u usageError
	switch {
	case err == nil:
		return
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	case errors.As(err, &u):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
