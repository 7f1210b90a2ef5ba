package main

// Spans recorded by the benchmark around its calls into each layer. They
// live in memory while a traced run measures and are written out as JSON
// lines when it ends. Nothing here reaches into the program: a layer's
// time is whatever its public functions take when the benchmark calls them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Parent is the id of the span that caused it (0
// for a root); spans of one unit of work share Group.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Group  string        `json:"group,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, group string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent, "")
	fn()
	t.end(id)
}

// write stores every span as one JSON line.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns, for the subtree under root, each module's self time:
// a span's duration minus the part its direct children cover, summed by
// the module prefix of its name ("fleet.step" → "fleet"). The root's own
// self time is returned separately as the unattributed remainder. Spans
// under one root must not overlap their siblings (one goroutine).
func (t *tracer) selfTimes(root int) (rows map[string]time.Duration, total, unattributed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	rows = map[string]time.Duration{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		self := s.dur()
		for _, c := range children[id] {
			self -= t.spans[c-1].dur()
			walk(c)
		}
		if id == root {
			unattributed = self
			return
		}
		mod, _, _ := strings.Cut(s.Name, ".")
		rows[mod] += self
	}
	walk(root)
	return rows, t.spans[root-1].dur(), unattributed
}

// printSelfTable prints the per-module self-time table of one traced
// phase to standard error and returns the share of the traced total the
// module rows explain.
func printSelfTable(t *tracer, root int, title string) float64 {
	rows, total, rest := t.selfTimes(root)
	return printRows(title, rows, total, rest)
}

// printRows prints a self-time table and returns the share of total the
// module rows explain.
func printRows(title string, rows map[string]time.Duration, total, rest time.Duration) float64 {
	mods := make([]string, 0, len(rows))
	var sum time.Duration
	for m, d := range rows {
		mods = append(mods, m)
		sum += d
	}
	sort.Slice(mods, func(i, j int) bool { return rows[mods[i]] > rows[mods[j]] })
	fmt.Fprintf(os.Stderr, "self time, %s (traced total %.1f ms)\n", title, ms(total))
	for _, m := range mods {
		fmt.Fprintf(os.Stderr, "  %-14s %10.1f ms  %5.1f%%\n", m, ms(rows[m]), 100*float64(rows[m])/float64(total))
	}
	fmt.Fprintf(os.Stderr, "  %-14s %10.1f ms  %5.1f%%\n", "(unattributed)", ms(rest), 100*float64(rest)/float64(total))
	cov := float64(sum) / float64(total)
	fmt.Fprintf(os.Stderr, "  module rows sum to %.1f%% of the traced total\n", 100*cov)
	return cov
}

// layerMetrics is the full per-layer metric list with units. A traced run
// of any workload reports all of them; layers a workload does not run
// report 0.
var layerMetrics = []struct{ name, unit string }{
	{"market.generate_ms", "ms"},
	{"market.cache_misses", "count"},
	{"market.envelope_build_ms", "ms"},
	{"fleet.build_ms", "ms"},
	{"fleet.step_ms_per_day", "ms"},
	{"fleet.report_us", "us"},
	{"fleet.month_ms", "ms"},
	{"fleet.typed_over_single", "ratio"},
	{"fleet.typed_over_single_iqr", "ratio"},
	{"fleet.launches_per_month", "count"},
	{"fleet.rebalances_per_month", "count"},
	{"fleet.replicas_lost_per_month", "count"},
	{"controlplane.marshal_us_per_slice", "us"},
	{"controlplane.register_us", "us"},
	{"controlplane.snapshot_us", "us"},
	{"controlplane.timeline_us", "us"},
	{"controlplane.unregister_us", "us"},
	{"controlplane.stats_us", "us"},
	{"controlplane.queue_depth_mean", "count"},
	{"controlplane.queue_depth_max", "count"},
	{"httpapi.register_self_us", "us"},
	{"httpapi.snapshot_self_us", "us"},
	{"httpapi.timeline_self_us", "us"},
	{"httpapi.delete_self_us", "us"},
	{"httpapi.scrape_self_us", "us"},
	{"httpapi.snapshot_kb", "KB"},
	{"httpapi.timeline_kb", "KB"},
	{"httpapi.scrape_kb", "KB"},
	{"obs.timeline_us_per_slice", "us"},
	{"obs.overhead_frac", "ratio"},
	{"obs.overhead_frac_iqr", "ratio"},
	{"obs.ledger_lines_per_fleet", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.overhead_frac_iqr", "ratio"},
	{"sched.cold_cell_ms", "ms"},
	{"sched.migrations_per_cell", "count"},
	{"vm.checkpoint_gb_per_cell", "GB"},
	{"sweep.cells_simulated", "count"},
	{"sweep.cells_shared", "count"},
	{"sweep.cells_forked", "count"},
	{"sweep.cells_pruned", "count"},
	{"sweep.fork_skip_frac", "ratio"},
	{"sweep.self_ms", "ms"},
	{"bench.traced_total_ms", "ms"},
	{"bench.self_time_coverage", "ratio"},
	{"bench.tracing_overhead_frac", "ratio"},
	{"bench.generator_lateness_p99_ms", "ms"},
}

// layerSet fills the full per-layer list from the values a workload
// measured, with 0 for every layer it does not run. It panics on a name
// missing from layerMetrics: that is a bug in the benchmark.
func layerSet(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	known := map[string]bool{}
	for _, lm := range layerMetrics {
		known[lm.name] = true
		out[lm.name] = metric{Value: vals[lm.name], Unit: lm.unit}
	}
	for name := range vals {
		if !known[name] {
			panic("perfbench: per-layer metric " + name + " is not in layerMetrics")
		}
	}
	return out
}
