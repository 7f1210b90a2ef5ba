// Package trace is the simulation core's observability layer: a
// zero-dependency, allocation-conscious run tracer that records typed spans
// (migrations by class, revocation warning→suspend→restore chains, down
// intervals, billing-hour boundaries) on the simulated clock, plus per-run
// histograms (downtime by migration class, migration latency, spot price
// paid, checkpoint/restore durations) built on stats.Histogram.
//
// A *Recorder belongs to exactly one simulation run and is driven from that
// run's single event-loop goroutine; it is not safe for concurrent use. A
// nil *Recorder is a valid no-op: every method checks the receiver first,
// so instrumented code calls unconditionally and the untraced hot path
// costs one nil check and zero allocations (guarded by
// TestNilRecorderAllocs and BenchmarkSchedulerMonthTraced).
//
// Recorders for concurrent runs are minted and gathered by a Collector,
// which merges their histograms and exports spans as Chrome trace_event
// JSON (chrome://tracing, Perfetto), JSONL, or Prometheus text.
package trace

// Kind classifies a span or instant event.
type Kind uint8

// Span kinds, covering the scheduler, provider and fleet state machines.
const (
	// KindBoot covers initial VM acquisition through service readiness.
	KindBoot Kind = iota
	// KindMigration covers one migration start→done (or →abort); its
	// class is "forced", "planned", "reverse", or "waiting" (pure-spot
	// re-acquisition).
	KindMigration
	// KindWarning marks a revocation warning instant.
	KindWarning
	// KindSuspend marks the instant a revoked VM's state is captured (or
	// lost: class "memlost").
	KindSuspend
	// KindRestore covers checkpoint restore on the fallback instance.
	KindRestore
	// KindDown covers a service-unavailable interval; classes mirror the
	// migration that caused it.
	KindDown
	// KindBillingHour marks a billing-hour boundary charge; class is
	// "spot" or "on-demand".
	KindBillingHour
	// KindLaunch covers a fleet replica's request→running interval;
	// class is "spot", "on-demand" or "reverse".
	KindLaunch
	// KindLoss marks a fleet replica lost to revocation.
	KindLoss
)

var kindNames = [...]string{
	"boot", "migration", "warning", "suspend", "restore", "down",
	"billing-hour", "launch", "loss",
}

// String returns the kind's stable lowercase name, used verbatim in every
// exporter.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one recorded interval (or instant) on the simulated clock.
// Times are simulation seconds. An instant has End == Start and Inst set;
// a span still open at export time has End < Start.
type Span struct {
	Kind  Kind
	Class string // kind-specific label, e.g. migration class
	Track string // lane within the run, e.g. service name or replica id
	Start float64
	End   float64
	Note  string // abort reason or other annotation
	Inst  bool
}

// Open reports whether the span has not been ended.
func (s *Span) Open() bool { return !s.Inst && s.End < s.Start }

// SpanID is a handle to an open span. The zero SpanID is invalid and every
// operation on it is a no-op, which is what Begin on a nil Recorder
// returns — callers never branch on it.
type SpanID int32

// Recorder accumulates one run's spans and histograms. Mint one per run
// via Collector.Run (or NewRecorder for standalone use); a nil Recorder
// no-ops every method.
type Recorder struct {
	// Label identifies the run in exports, e.g. "figure6/cfg03/seed69".
	Label string
	spans []Span
	hist  *HistSet
}

// NewRecorder returns a standalone recorder with the given run label.
func NewRecorder(label string) *Recorder {
	return &Recorder{Label: label, hist: NewHistSet()}
}

// Begin opens a span and returns its handle. On a nil recorder it returns
// the invalid SpanID 0.
func (r *Recorder) Begin(k Kind, class, track string, at float64) SpanID {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, Span{Kind: k, Class: class, Track: track, Start: at, End: at - 1})
	return SpanID(len(r.spans))
}

// End closes the span at time at and returns its duration in simulated
// seconds (0 for a nil recorder, invalid handle, or already-closed span).
func (r *Recorder) End(id SpanID, at float64) float64 {
	return r.EndWith(id, at, "")
}

// EndWith is End with an annotation, e.g. "aborted" for a migration whose
// target failed before cutover.
func (r *Recorder) EndWith(id SpanID, at float64, note string) float64 {
	if r == nil || id <= 0 || int(id) > len(r.spans) {
		return 0
	}
	s := &r.spans[id-1]
	if !s.Open() {
		return 0
	}
	s.End = at
	s.Note = note
	return s.End - s.Start
}

// Instant records a zero-duration event.
func (r *Recorder) Instant(k Kind, class, track string, at float64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, Span{Kind: k, Class: class, Track: track, Start: at, End: at, Inst: true})
}

// CloseOpen closes every still-open span at time at, annotating it as
// truncated by end-of-run. Call it when the run stops so exports carry no
// dangling spans.
func (r *Recorder) CloseOpen(at float64) {
	if r == nil {
		return
	}
	for i := range r.spans {
		if r.spans[i].Open() {
			r.spans[i].End = at
			r.spans[i].Note = "open-at-stop"
		}
	}
}

// Spans returns the recorded spans in creation order (nil for a nil
// recorder). The slice is owned by the recorder; do not mutate it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// ObserveDowntime records one unavailability interval, labeled by the
// migration class that caused it.
func (r *Recorder) ObserveDowntime(class string, secs float64) {
	if r == nil {
		return
	}
	r.hist.downtime(class).Add(secs)
}

// ObserveMigration records one completed migration's start→done latency,
// labeled by class.
func (r *Recorder) ObserveMigration(class string, secs float64) {
	if r == nil {
		return
	}
	r.hist.migration(class).Add(secs)
}

// ObserveSpotPrice records the spot rate paid at one billing-hour boundary
// (dollars per hour).
func (r *Recorder) ObserveSpotPrice(dollars float64) {
	if r == nil {
		return
	}
	r.hist.SpotPrice.Add(dollars)
}

// ObserveRestore records one checkpoint-restore duration.
func (r *Recorder) ObserveRestore(secs float64) {
	if r == nil {
		return
	}
	r.hist.Restore.Add(secs)
}

// ObserveCheckpoint records one background checkpoint write duration.
func (r *Recorder) ObserveCheckpoint(secs float64) {
	if r == nil {
		return
	}
	r.hist.Checkpoint.Add(secs)
}
