package metrics

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestServingLifecycle(t *testing.T) {
	var s Serving
	done := s.StartKind("")
	if st := s.Snapshot(); st.Started != 1 || st.InFlight != 1 {
		t.Fatalf("after Start: %+v", st)
	}
	done(nil)
	done(nil) // second call is a no-op
	s.StartKind("")(context.Canceled)
	s.StartKind("")(context.DeadlineExceeded)
	s.StartKind("")(errors.New("boom"))
	s.Reject()
	st := s.Snapshot()
	if st.Started != 4 || st.Completed != 1 || st.Canceled != 2 || st.Failed != 1 ||
		st.Rejected != 1 || st.InFlight != 0 {
		t.Fatalf("snapshot: %+v", st)
	}
	if st.RunSecondsTotal < 0 {
		t.Fatalf("negative run seconds: %v", st.RunSecondsTotal)
	}
}

func TestServingKinds(t *testing.T) {
	var s Serving
	s.StartKind("experiment")(nil)
	s.StartKind("fleet")(nil)
	s.StartKind("fleet")(context.Canceled)
	fdone := s.StartKind("fleet")
	s.StartKind("")(errors.New("boom")) // unkinded: aggregate only

	st := s.Snapshot()
	if st.Started != 5 || st.InFlight != 1 {
		t.Fatalf("aggregate: %+v", st)
	}
	fl := st.Kinds["fleet"]
	if fl.Started != 3 || fl.Completed != 1 || fl.Canceled != 1 || fl.InFlight != 1 {
		t.Fatalf("fleet kind: %+v", fl)
	}
	if ex := st.Kinds["experiment"]; ex.Started != 1 || ex.Completed != 1 {
		t.Fatalf("experiment kind: %+v", ex)
	}
	if _, ok := st.Kinds[""]; ok {
		t.Fatal("empty kind tracked")
	}

	var b strings.Builder
	st.WritePrometheus(&b, "spotserve")
	out := b.String()
	for _, want := range []string{
		`spotserve_kind_runs_total{kind="fleet",outcome="started"} 3`,
		`spotserve_kind_runs_total{kind="fleet",outcome="canceled"} 1`,
		`spotserve_kind_runs_total{kind="experiment",outcome="completed"} 1`,
		`spotserve_kind_runs_in_flight{kind="fleet"} 1`,
		"# TYPE spotserve_kind_runs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Kinds render in sorted order for deterministic scrapes.
	if strings.Index(out, `kind="experiment"`) > strings.Index(out, `kind="fleet"`) {
		t.Fatalf("kinds out of order:\n%s", out)
	}
	fdone(nil)
	if st := s.Snapshot(); st.Kinds["fleet"].InFlight != 0 {
		t.Fatalf("fleet in-flight after done: %+v", st.Kinds["fleet"])
	}
}

func TestServingRunSecondsHistogram(t *testing.T) {
	var s Serving
	s.StartKind("")(nil) // sub-millisecond run: lands in the first bucket
	st := s.Snapshot()
	if st.RunSecondsCount != 1 {
		t.Fatalf("count: %+v", st)
	}
	bounds := runSecondsBounds
	if len(st.RunSecondsBuckets) != len(bounds) {
		t.Fatalf("bucket/bound mismatch: %d vs %d", len(st.RunSecondsBuckets), len(bounds))
	}
	if st.RunSecondsBuckets[0] != 1 {
		t.Fatalf("fast run not in first bucket: %v", st.RunSecondsBuckets)
	}

	var b strings.Builder
	st.WritePrometheus(&b, "spotserve")
	out := b.String()
	for _, want := range []string{
		"# TYPE spotserve_run_seconds histogram",
		`spotserve_run_seconds_bucket{le="0.1"} 1`,
		`spotserve_run_seconds_bucket{le="600"} 1`,
		`spotserve_run_seconds_bucket{le="+Inf"} 1`,
		"spotserve_run_seconds_count 1",
		"spotserve_run_seconds_sum",
		"spotserve_run_seconds_total", // legacy counter kept
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestServingWritePrometheus(t *testing.T) {
	var s Serving
	s.StartKind("")(nil)
	s.Reject()
	var b strings.Builder
	s.Snapshot().WritePrometheus(&b, "spotserve")
	out := b.String()
	for _, want := range []string{
		"spotserve_runs_started_total 1",
		"spotserve_runs_completed_total 1",
		"spotserve_runs_canceled_total 0",
		"spotserve_runs_failed_total 0",
		"spotserve_runs_rejected_total 1",
		"spotserve_runs_in_flight 0",
		"# TYPE spotserve_runs_in_flight gauge",
		"# TYPE spotserve_runs_started_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
