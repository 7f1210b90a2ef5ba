package sched

import (
	"fmt"
	"strings"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// runRecorded runs one scheduler over set to the horizon with a recorder
// on its engine and returns both.
func runRecorded(t *testing.T, set *market.Set, cfg Config, horizon sim.Time) (*Scheduler, *trace.Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	rec := trace.NewRecorder(t.Name())
	eng.SetRecorder(rec)
	s, err := New(cloud.NewProvider(eng, set, fixedCloudParams()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(horizon)
	return s, rec
}

// serviceSpans returns the recorder's spans in creation order without the
// provider's billing-hour instants.
func serviceSpans(rec *trace.Recorder) []trace.Span {
	var out []trace.Span
	for _, sp := range rec.Spans() {
		if sp.Kind != trace.KindBillingHour {
			out = append(out, sp)
		}
	}
	return out
}

// spansOf returns the recorded spans of kind k in creation order.
func spansOf(rec *trace.Recorder, k trace.Kind) []trace.Span {
	var out []trace.Span
	for _, sp := range rec.Spans() {
		if sp.Kind == k {
			out = append(out, sp)
		}
	}
	return out
}

// renderSpans renders the service spans one per line for failure
// messages.
func renderSpans(rec *trace.Recorder) string {
	var b strings.Builder
	for _, sp := range serviceSpans(rec) {
		fmt.Fprintf(&b, "%8.0f..%8.0f %-9s %-10s %s\n", sp.Start, sp.End, sp.Kind, sp.Class, sp.Note)
	}
	return b.String()
}

// TestEventLogForcedSequence asserts the exact span sequence of the
// paper's revocation flow: boot -> warning -> forced migration (suspend,
// down, restore), followed by the reverse migration once the price
// recovers.
func TestEventLogForcedSequence(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 40*sim.Hour)
	_, rec := runRecorded(t, set, mustConfig(t), 40*sim.Hour)

	spans := serviceSpans(rec)
	want := []struct {
		kind  trace.Kind
		class string
	}{
		{trace.KindBoot, ""}, // spot bootstrap
		{trace.KindWarning, ""}, {trace.KindMigration, "forced"}, {trace.KindSuspend, "checkpoint"},
		{trace.KindDown, "forced"}, {trace.KindRestore, ""}, // forced migration
		{trace.KindMigration, "reverse"}, // reverse migration
	}
	if len(spans) < len(want) {
		t.Fatalf("too few spans:\n%s", renderSpans(rec))
	}
	for i, w := range want {
		if spans[i].Kind != w.kind || spans[i].Class != w.class {
			t.Fatalf("span %d = %v/%s, want %v/%s\nall spans:\n%s", i, spans[i].Kind, spans[i].Class, w.kind, w.class, renderSpans(rec))
		}
	}
	// Ordering sanity: start times non-decreasing.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans out of order at %d:\n%s", i, renderSpans(rec))
		}
	}
	// The service was up before the warning, and came back when the
	// restore finished, which ends the forced migration.
	boot, warn, forced, restore := spans[0], spans[1], spans[2], spans[5]
	if boot.Open() || boot.End > warn.Start {
		t.Fatalf("boot %+v not complete before the warning at %v", boot, warn.Start)
	}
	if restore.Open() || forced.End != restore.End {
		t.Fatalf("forced migration %+v does not end with its restore %+v", forced, restore)
	}
	if rev := spans[6]; rev.Open() || rev.Note != "" {
		t.Fatalf("reverse migration did not complete: %+v", rev)
	}
	if got := len(spansOf(rec, trace.KindWarning)); got != 1 {
		t.Fatalf("warnings = %d", got)
	}
}

// TestEventLogPlannedSequence: a mid-band excursion produces a voluntary
// migration pair instead of warnings.
func TestEventLogPlannedSequence(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.10},
		{T: 30000, Price: 0.01},
	}, 40*sim.Hour)
	_, rec := runRecorded(t, set, mustConfig(t), 40*sim.Hour)

	if len(spansOf(rec, trace.KindWarning)) != 0 {
		t.Fatalf("proactive policy was warned:\n%s", renderSpans(rec))
	}
	migs := spansOf(rec, trace.KindMigration)
	if len(migs) < 2 {
		t.Fatalf("expected planned + reverse migrations:\n%s", renderSpans(rec))
	}
	// First voluntary move lands on on-demand, second back on spot.
	if migs[0].Class != "planned" || migs[1].Class != "reverse" {
		t.Fatalf("migration classes: %s, %s", migs[0].Class, migs[1].Class)
	}
	for _, m := range migs[:2] {
		if m.Open() || m.Note != "" {
			t.Fatalf("migration did not complete: %+v\n%s", m, renderSpans(rec))
		}
	}
}

// TestEventLogPureSpotWaiting: pure spot records the waiting state and
// restores once the price drops.
func TestEventLogPureSpotWaiting(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 40*sim.Hour)
	cfg := mustConfig(t)
	cfg.Bidding = PureSpot
	_, rec := runRecorded(t, set, cfg, 40*sim.Hour)

	var waits []trace.Span
	for _, m := range spansOf(rec, trace.KindMigration) {
		if m.Note == "pure-spot waiting" {
			waits = append(waits, m)
		}
	}
	if len(waits) != 1 {
		t.Fatalf("waiting migrations:\n%s", renderSpans(rec))
	}
	// Re-acquired spot capacity: a restore after the wait that ends the
	// waiting down interval.
	restores := spansOf(rec, trace.KindRestore)
	downs := spansOf(rec, trace.KindDown)
	if len(restores) != 1 || len(downs) != 1 {
		t.Fatalf("reacquisition missing:\n%s", renderSpans(rec))
	}
	r, d := restores[0], downs[0]
	if r.Open() || r.Start < waits[0].End || d.Class != "waiting" || d.End != r.End {
		t.Fatalf("reacquisition missing:\n%s", renderSpans(rec))
	}
}
