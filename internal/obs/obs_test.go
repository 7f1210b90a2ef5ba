package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// A counter series under budget is exact: every event lands in its own
// aligned bucket at the initial width and the integral is the plain sum.
func TestSeriesExactUnderBudget(t *testing.T) {
	s := newSeries("x", CounterSeries, 8, 10)
	s.add(5, 1)
	s.add(15, 2)
	s.add(15, 3)
	s.add(79, 4)
	d := s.data(80)
	if d.Width != 10 {
		t.Fatalf("width = %g, want 10 (no compaction under budget)", d.Width)
	}
	want := []float64{1, 5, 0, 0, 0, 0, 0, 4}
	if !reflect.DeepEqual(d.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", d.Buckets, want)
	}
	if d.Integral != 10 {
		t.Fatalf("integral = %g, want 10", d.Integral)
	}
}

// Outgrowing the budget merges bucket pairs: the width doubles, the
// bucket count stays bounded, and the total is preserved exactly.
func TestSeriesCompactPreservesTotal(t *testing.T) {
	s := newSeries("x", CounterSeries, 4, 1)
	total := 0.0
	for i := 0; i < 1000; i++ {
		s.add(float64(i), 1)
		total++
	}
	if len(s.b) > 4 {
		t.Fatalf("bucket count %d exceeds budget 4", len(s.b))
	}
	if got := s.data(1000).Integral; got != total {
		t.Fatalf("integral = %g, want %g", got, total)
	}
	if s.width != 256 {
		t.Fatalf("width = %g, want 256 (1000s horizon over 4 buckets)", s.width)
	}
}

// The downsampled shape is a pure function of the observation sequence:
// replaying the same adds always produces identical buckets.
func TestSeriesDeterministicDownsample(t *testing.T) {
	build := func() SeriesData {
		s := newSeries("x", CounterSeries, 16, 2)
		for i := 0; i < 5000; i++ {
			s.add(float64(i)*1.7, float64(i%7))
		}
		return s.data(5000 * 1.7)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same observation sequence produced different series data")
	}
}

// Gauge until() credits value x elapsed time, split across buckets, so
// the integral matches the exact step-function integral.
func TestGaugeUntilIntegral(t *testing.T) {
	s := newSeries("g", GaugeSeries, 8, 10)
	s.until(7, 3)   // 3 units over [0,7)
	s.until(25, 5)  // 5 units over [7,25)
	s.until(25, 99) // non-advancing: no-op
	s.until(40, 0)  // 0 units over [25,40)
	want := 7*3.0 + 18*5.0
	if got := s.data(40).Integral; math.Abs(got-want) > 1e-9 {
		t.Fatalf("integral = %g, want %g", got, want)
	}
	// Bucket 0 covers [0,10): 7s at 3 + 3s at 5 = 36 unit-seconds, mean 3.6.
	if got := s.data(40).Buckets[0]; math.Abs(got-3.6) > 1e-9 {
		t.Fatalf("bucket 0 mean = %g, want 3.6", got)
	}
}

// A partially covered tail bucket reports a mean over its covered span,
// not its full width.
func TestGaugeTailCoverage(t *testing.T) {
	s := newSeries("g", GaugeSeries, 8, 10)
	s.until(15, 4) // [0,15) at 4
	d := s.data(15)
	if got := d.Buckets[1]; math.Abs(got-4) > 1e-9 {
		t.Fatalf("tail bucket mean = %g, want 4 (5s covered of a 10s bucket)", got)
	}
}

func TestRangeIntegral(t *testing.T) {
	s := newSeries("g", GaugeSeries, 8, 10)
	s.until(40, 2) // flat 2 over [0,40)
	if got := s.rangeIntegral(5, 25, 40); math.Abs(got-40) > 1e-9 {
		t.Fatalf("rangeIntegral(5,25) = %g, want 40", got)
	}
	if got := s.rangeIntegral(-10, 10, 40); math.Abs(got-20) > 1e-9 {
		t.Fatalf("rangeIntegral(-10,10) = %g, want 20", got)
	}
}

// Every Recorder method must no-op on a nil receiver.
func TestRecorderNilSafe(t *testing.T) {
	var o *Recorder
	o.Capacity(1, 2, 3)
	o.Charge(1, "m", "t", 4)
	o.Count(1, CountLaunch)
	o.Decide(Decision{})
	o.Finalize(10, 0, 0)
	if got := o.Ledger(); got != nil {
		t.Fatalf("nil recorder ledger = %v, want nil", got)
	}
	if tl := o.Snapshot(10, 0, 0); len(tl.Series) != 0 {
		t.Fatalf("nil recorder snapshot has %d series", len(tl.Series))
	}
	if o.Label() != "" {
		t.Fatal("nil recorder label non-empty")
	}
}

// A mid-run snapshot folds the open gauge tail into a copy: it must not
// perturb either later snapshots or the final export.
func TestSnapshotReadOnly(t *testing.T) {
	run := func(snapMid bool) Timeline {
		o := NewRecorder("r", Config{Budget: 16, Width: 10})
		o.Capacity(0, 0, 4)
		o.Charge(30, "m1", "small", 1.5)
		o.Capacity(50, 3, 4)
		if snapMid {
			_ = o.Snapshot(75, 3, 4)
		}
		o.Capacity(100, 4, 4)
		o.Finalize(120, 4, 4)
		return o.SnapshotFinal()
	}
	a, b := run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mid-run snapshot perturbed the final export")
	}
}

func TestRecorderCapacityAndLedger(t *testing.T) {
	o := NewRecorder("fleet/seed1", Config{Budget: 16, Width: 3600})
	o.Capacity(0, 0, 6)
	o.Decide(Decision{At: 10, Action: "spot", Market: "us-east-1a/small", Units: 1})
	o.Count(10, CountLaunch)
	o.Capacity(7200, 6, 6)
	o.Finalize(7200, 6, 6)

	ds := o.Ledger()
	if len(ds) != 1 || ds[0].Schema != LedgerSchema {
		t.Fatalf("ledger = %+v, want one schema-stamped decision", ds)
	}
	tl := o.SnapshotFinal()
	if tl.Schema != TimelineSchema || tl.Label != "fleet/seed1" || tl.Decisions != 1 {
		t.Fatalf("timeline header = %+v", tl)
	}
	byName := map[string]SeriesData{}
	for _, sd := range tl.Series {
		byName[sd.Name] = sd
	}
	// Capacity(t, v, ...) credits v over the interval ending at t, the way
	// the controller integrates elapsed intervals: 6 units over [0,7200)
	// is 43200 unit-seconds for both served and target, zero shortfall.
	if got := byName["target_units"].Integral; math.Abs(got-43200) > 1e-6 {
		t.Fatalf("target integral = %g, want 43200", got)
	}
	if got := byName["served_units"].Integral; math.Abs(got-43200) > 1e-6 {
		t.Fatalf("served integral = %g, want 43200", got)
	}
	if got := byName["shortfall_units"].Integral; got != 0 {
		t.Fatalf("shortfall integral = %g, want 0", got)
	}
	if got := byName["launches"].Integral; got != 1 {
		t.Fatalf("launches = %g, want 1", got)
	}
}

func TestLedgerNDJSONRoundTrip(t *testing.T) {
	d := Decision{
		Schema: LedgerSchema, At: 42.5, Action: "reverse",
		Market: "us-east-1a/small", Type: "small", Price: 0.02, Bid: 0.09,
		Units: 1, Rank: 2, ArgminMarket: "us-west-1a/small", ArgminPrice: 0.018,
		Margin: 0.3, TargetUnits: 6, CapacityUnits: 5, QuotaUnits: 16,
		Replaces: "eu-west-1a/small", Note: "consolidate",
	}
	line, err := d.AppendNDJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
		t.Fatalf("not one newline-terminated line: %q", line)
	}
	var back Decision
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
}

// A full-outage hour against a 99.9% objective burns hundreds of times
// the budget: both windows must fire exactly once each (one upward
// crossing), and a clean run must not alert.
func TestSLOAlerts(t *testing.T) {
	o := NewRecorder("r", Config{Budget: 64, Width: 600})
	o.Capacity(0, 4, 4)
	o.Capacity(4*3600, 4, 4)  // healthy for 4h
	o.Capacity(5*3600, 0, 4)  // total shortfall for 1h
	o.Capacity(12*3600, 4, 4) // healthy again
	o.Finalize(12*3600, 4, 4)
	tl := o.SnapshotFinal()
	var pages, tickets int
	for _, a := range tl.Alerts {
		switch a.Severity {
		case "page":
			pages++
		case "ticket":
			tickets++
		default:
			t.Fatalf("unknown severity %q", a.Severity)
		}
		if a.Burn < 1 {
			t.Fatalf("alert burn = %g, want >= 1", a.Burn)
		}
	}
	if pages != 1 || tickets != 1 {
		t.Fatalf("alerts = %d pages + %d tickets, want 1 + 1 (%+v)", pages, tickets, tl.Alerts)
	}

	clean := NewRecorder("r", Config{Budget: 64, Width: 600})
	clean.Capacity(0, 4, 4)
	clean.Finalize(12*3600, 4, 4)
	if got := clean.SnapshotFinal().Alerts; len(got) != 0 {
		t.Fatalf("clean run alerted: %+v", got)
	}
}

func TestCollectorScopeAndDedup(t *testing.T) {
	c := NewCollector(Config{Budget: 8, Width: 10})
	sc := c.Scope("shard-0").Scope("acme")
	r1 := sc.Run("web")
	if r1.Label() != "shard-0/acme/web" {
		t.Fatalf("label = %q", r1.Label())
	}
	r1.Finalize(10, 1, 1)
	c.Done(r1)
	r2 := sc.Run("web")
	r2.Finalize(10, 1, 1)
	c.Done(r2)
	tls := c.Timelines()
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2", len(tls))
	}
	if tls[0].Label != "shard-0/acme/web" || tls[1].Label != "shard-0/acme/web#2" {
		t.Fatalf("labels = %q, %q", tls[0].Label, tls[1].Label)
	}

	var nilC *Collector
	if nilC.Scope("x") != nil || nilC.Run("y") != nil {
		t.Fatal("nil collector minted non-nil")
	}
	nilC.Done(nil) // must not panic
}

func TestAggregateCollectorPrometheus(t *testing.T) {
	c := NewAggregateCollector(Config{Budget: 8, Width: 10})
	r := c.Run("a")
	r.Charge(5, "m", "small", 2.5)
	r.Decide(Decision{Action: "spot"})
	r.Decide(Decision{Action: "bridge"})
	r.Finalize(10, 1, 1)
	c.Done(r)
	if got := c.Timelines(); len(got) != 0 {
		t.Fatalf("aggregate collector retained %d runs", len(got))
	}
	var buf bytes.Buffer
	c.WritePrometheus(&buf, "spotserve")
	out := buf.String()
	for _, want := range []string{
		"spotserve_obs_runs_total 1",
		`spotserve_obs_decisions_total{action="bridge"} 1`,
		`spotserve_obs_decisions_total{action="spot"} 1`,
		"spotserve_obs_cost_dollars_total 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTimelineCSV(t *testing.T) {
	o := NewRecorder("lbl", Config{Budget: 8, Width: 10})
	o.Charge(5, "m", "small", 1)
	o.Finalize(20, 0, 0)
	var buf bytes.Buffer
	if err := o.SnapshotFinal().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines {
		if !strings.HasPrefix(l, "lbl,") {
			t.Fatalf("row not label-stamped: %q", l)
		}
		if got := strings.Count(l, ","); got != 5 {
			t.Fatalf("row %q has %d commas, want 5 (matching %q)", l, got, TimelineCSVHeader)
		}
	}
}
