// Package experiments regenerates every table and figure in the paper's
// evaluation (Sections 4-6). Each experiment has one entry point returning
// a typed result with a Render method that prints the same rows/series the
// paper reports; cmd/paperbench runs them all, and bench_test.go exposes
// one testing.B target per table/figure.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"spothost/internal/catalog"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Options configures an experiment run. Zero fields are filled with
// defaults by normalize.
type Options struct {
	// Seeds drives repeated runs over independently generated synthetic
	// universes; reported numbers are cross-seed means.
	Seeds []int64
	// Horizon is the hosting window (the paper simulates over month-long
	// traces) and the length of every generated universe.
	Horizon sim.Duration
	// Parallel is the worker count for the run pool; every (config, seed)
	// simulation cell is independent, so experiments fan out across
	// workers. Zero means GOMAXPROCS. Rendered output is byte-identical
	// at any worker count.
	Parallel int
	// Context, when set, bounds the experiment: canceling it aborts every
	// in-flight simulation cell within one engine cancellation-poll batch
	// and the experiment returns the context's error. Nil means
	// context.Background() (run to completion).
	Context context.Context
	// Trace, when set, collects a run trace: every simulation cell records
	// spans and histograms into its own recorder labeled by its (config,
	// seed) coordinates, so exports are deterministic at any Parallel
	// setting. Nil (the default) traces nothing at no cost.
	Trace *trace.Collector
	// Obs, when set, collects simulated-time telemetry: every fleet
	// simulation cell records capacity/cost timelines and its decision
	// ledger into a recorder labeled by its (config, seed) coordinates,
	// exported deterministically at any Parallel setting. Nil (the
	// default) records nothing at no cost.
	Obs *obs.Collector
	// Catalog, when set, runs fleet experiments over the heterogeneous
	// instance catalog: the generated universe is widened to the
	// catalog's types and replicas may be any type at least as powerful
	// as Anchor. Nil (the default) keeps the single-type legacy fleet.
	Catalog *catalog.Catalog
	// Anchor is the capacity anchor type used with Catalog; empty means
	// "small".
	Anchor market.InstanceType
}

// figureRegion is the home region of the single-region figures.
const figureRegion market.Region = "us-east-1a"

// Defaults returns the full-fidelity options used by cmd/paperbench:
// five seeds over 30-day universes.
func Defaults() Options {
	return Options{
		Seeds:   []int64{11, 22, 33, 44, 55},
		Horizon: 30 * sim.Day,
	}
}

// Quick returns reduced options (two seeds, 10-day universes) for tests
// and smoke runs.
func Quick() Options {
	o := Defaults()
	o.Seeds = []int64{7, 13}
	o.Horizon = 10 * sim.Day
	return o
}

// normalize fills zero-valued fields with defaults.
func (o Options) normalize() Options {
	d := Defaults()
	if len(o.Seeds) == 0 {
		o.Seeds = d.Seeds
	}
	if o.Horizon <= 0 {
		o.Horizon = d.Horizon
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// marketConfig is the synthetic-universe configuration: the default
// generator over the hosting window (Seed is overridden per run).
func (o Options) marketConfig() market.Config {
	mc := market.DefaultConfig(0)
	mc.Horizon = o.Horizon
	return mc
}

// renderTable formats a fixed-width text table.
func renderTable(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// pct formats a fraction as a percentage string.
func pct(f float64, decimals int) string {
	return fmt.Sprintf("%.*f%%", decimals, 100*f)
}
