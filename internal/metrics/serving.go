package metrics

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Serving tracks the HTTP serving layer's run lifecycle: how many
// simulation runs were started, finished (and how), rejected at admission,
// and how many are in flight right now, plus total run wall time. It is
// the counter set behind spotserve's GET /metrics endpoint. All methods
// are safe for concurrent use.
type Serving struct {
	mu         sync.Mutex
	started    uint64
	completed  uint64
	canceled   uint64
	failed     uint64
	rejected   uint64
	inFlight   int64
	runSeconds float64
	runCount   uint64
	runBuckets []uint64 // per-bound counts, aligned with runSecondsBounds
	kinds      map[string]*KindStats
}

// runSecondsBounds are the fixed upper bounds of the run-duration
// histogram, in seconds. They span sub-second smoke runs through the
// ten-minute serving deadline; durations beyond the last bound land only
// in the implicit +Inf bucket.
var runSecondsBounds = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// KindStats is the per-run-kind counter subset: what the serving layer
// ran (experiment, scenario, fleet), broken out by outcome.
type KindStats struct {
	Started   uint64
	Completed uint64
	Canceled  uint64
	Failed    uint64
	InFlight  int64
}

// StartKind records a run entering execution and returns the done
// callback to invoke exactly once when it finishes. done classifies the
// outcome from the run's error: nil counts as completed, context
// cancellation or deadline expiry as canceled, anything else as failed; it
// also adds the run's wall time to the duration total and decrements the
// in-flight gauge. kind labels the run ("experiment", "scenario",
// "fleet", ...): it is counted both in the aggregate counters and in a
// per-kind breakdown. An empty kind counts only in the aggregate.
func (s *Serving) StartKind(kind string) (done func(err error)) {
	s.mu.Lock()
	s.started++
	s.inFlight++
	k := s.kind(kind)
	if k != nil {
		k.Started++
		k.InFlight++
	}
	s.mu.Unlock()
	begin := time.Now()
	var once sync.Once
	return func(err error) {
		once.Do(func() {
			d := time.Since(begin).Seconds()
			s.mu.Lock()
			defer s.mu.Unlock()
			s.inFlight--
			s.runSeconds += d
			s.runCount++
			if s.runBuckets == nil {
				s.runBuckets = make([]uint64, len(runSecondsBounds))
			}
			for i, le := range runSecondsBounds {
				if d <= le {
					s.runBuckets[i]++
					break
				}
			}
			k := s.kind(kind)
			if k != nil {
				k.InFlight--
			}
			switch {
			case err == nil:
				s.completed++
				if k != nil {
					k.Completed++
				}
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				s.canceled++
				if k != nil {
					k.Canceled++
				}
			default:
				s.failed++
				if k != nil {
					k.Failed++
				}
			}
		})
	}
}

// kind returns the named kind's counters, creating them on first use.
// Callers must hold s.mu; an empty kind returns nil.
func (s *Serving) kind(name string) *KindStats {
	if name == "" {
		return nil
	}
	if s.kinds == nil {
		s.kinds = map[string]*KindStats{}
	}
	k, ok := s.kinds[name]
	if !ok {
		k = &KindStats{}
		s.kinds[name] = k
	}
	return k
}

// Reject records a run turned away at admission (e.g. HTTP 429).
func (s *Serving) Reject() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// ServingStats is a point-in-time snapshot of a Serving counter set.
type ServingStats struct {
	Started         uint64
	Completed       uint64
	Canceled        uint64
	Failed          uint64
	Rejected        uint64
	InFlight        int64
	RunSecondsTotal float64
	// RunSecondsCount is the number of finished runs observed by the
	// duration histogram; RunSecondsBuckets holds the per-bucket (not
	// cumulative) counts aligned with the fixed runSecondsBounds. Runs
	// longer than the last bound count only toward RunSecondsCount (the
	// +Inf bucket).
	RunSecondsCount   uint64
	RunSecondsBuckets []uint64
	// Kinds breaks the run counters out by run kind (StartKind label).
	Kinds map[string]KindStats
}

// Snapshot returns a consistent snapshot of the counters.
func (s *Serving) Snapshot() ServingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServingStats{
		Started:         s.started,
		Completed:       s.completed,
		Canceled:        s.canceled,
		Failed:          s.failed,
		Rejected:        s.rejected,
		InFlight:        s.inFlight,
		RunSecondsTotal: s.runSeconds,
		RunSecondsCount: s.runCount,
	}
	if s.runBuckets != nil {
		st.RunSecondsBuckets = make([]uint64, len(s.runBuckets))
		copy(st.RunSecondsBuckets, s.runBuckets)
	}
	if len(s.kinds) > 0 {
		st.Kinds = make(map[string]KindStats, len(s.kinds))
		for name, k := range s.kinds {
			st.Kinds[name] = *k
		}
	}
	return st
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, with every metric name prefixed by prefix + "_".
func (st ServingStats) WritePrometheus(w io.Writer, prefix string) {
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %v\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	counter("runs_started_total", "Simulation runs admitted for execution.", st.Started)
	counter("runs_completed_total", "Runs that finished successfully.", st.Completed)
	counter("runs_canceled_total", "Runs aborted by client cancel or deadline.", st.Canceled)
	counter("runs_failed_total", "Runs that returned a non-cancellation error.", st.Failed)
	counter("runs_rejected_total", "Runs refused at admission control (HTTP 429).", st.Rejected)
	counter("run_seconds_total", "Total wall-clock seconds spent executing runs.", st.RunSecondsTotal)
	fmt.Fprintf(w, "# HELP %s_run_seconds Wall-clock run duration distribution.\n# TYPE %s_run_seconds histogram\n",
		prefix, prefix)
	var cum uint64
	for i, le := range runSecondsBounds {
		if i < len(st.RunSecondsBuckets) {
			cum += st.RunSecondsBuckets[i]
		}
		fmt.Fprintf(w, "%s_run_seconds_bucket{le=%q} %d\n", prefix, trimFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_run_seconds_bucket{le=\"+Inf\"} %d\n", prefix, st.RunSecondsCount)
	fmt.Fprintf(w, "%s_run_seconds_sum %v\n", prefix, st.RunSecondsTotal)
	fmt.Fprintf(w, "%s_run_seconds_count %d\n", prefix, st.RunSecondsCount)
	fmt.Fprintf(w, "# HELP %s_runs_in_flight Runs currently executing.\n# TYPE %s_runs_in_flight gauge\n%s_runs_in_flight %d\n",
		prefix, prefix, prefix, st.InFlight)
	if len(st.Kinds) == 0 {
		return
	}
	names := make([]string, 0, len(st.Kinds))
	for name := range st.Kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP %s_kind_runs_total Runs by kind and outcome.\n# TYPE %s_kind_runs_total counter\n",
		prefix, prefix)
	for _, name := range names {
		k := st.Kinds[name]
		for _, oc := range []struct {
			label string
			v     uint64
		}{{"started", k.Started}, {"completed", k.Completed}, {"canceled", k.Canceled}, {"failed", k.Failed}} {
			fmt.Fprintf(w, "%s_kind_runs_total{kind=%q,outcome=%q} %d\n", prefix, name, oc.label, oc.v)
		}
	}
	fmt.Fprintf(w, "# HELP %s_kind_runs_in_flight Runs currently executing, by kind.\n# TYPE %s_kind_runs_in_flight gauge\n",
		prefix, prefix)
	for _, name := range names {
		fmt.Fprintf(w, "%s_kind_runs_in_flight{kind=%q} %d\n", prefix, name, st.Kinds[name].InFlight)
	}
}

// trimFloat renders a bucket bound without trailing zeros ("0.1", "600").
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
