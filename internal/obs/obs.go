// Package obs is the simulated-time telemetry layer: fixed-memory
// downsampled timelines (cost accrual, capacity vs demand, shortfall,
// per-market and per-type spend, interruption/rebalance counts), a
// structured decision ledger explaining every controller action, and SLO
// burn-rate alerting over the shortfall series.
//
// It follows internal/trace's contract exactly: a *Recorder rides on the
// engine, every method is nil-safe, call sites guard on nil before
// building arguments so the disabled path allocates nothing, and export
// is deterministic — ordered by run label, independent of worker count.
// Time is simulated seconds (plain float64, the representation under
// sim.Time), never wall clock.
package obs

import "sort"

// Default series sizing: budget bounds the bucket count of every series
// regardless of horizon; width is the initial bucket granularity and
// doubles (merging pairs) whenever the horizon outgrows the budget.
const (
	DefaultBudget = 512
	DefaultWidth  = 300 // seconds
)

// TimelineSchema versions the exported timeline layout (see LedgerSchema
// for the versioning rules).
const TimelineSchema = 1

// Config sizes a Recorder's series.
type Config struct {
	// Budget bounds the bucket count of every series; 0 means
	// DefaultBudget. Memory per series is Budget buckets, fixed.
	Budget int
	// Width is the initial bucket width in simulated seconds; 0 means
	// DefaultWidth.
	Width float64
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = DefaultBudget
	}
	if c.Width <= 0 {
		c.Width = DefaultWidth
	}
	return c
}

// CountKind enumerates the event counters a Recorder keeps.
type CountKind uint8

const (
	CountLaunch CountKind = iota
	CountInterruption
	CountLoss
	CountRebalance
	CountMigration
	nCounts
)

var countNames = [nCounts]string{"launches", "interruptions", "losses", "rebalances", "migrations"}

// Recorder accumulates one run's telemetry. It is nil-safe — every
// method no-ops on a nil receiver — and single-goroutine, like the
// simulation feeding it.
type Recorder struct {
	label string
	cfg   Config

	cost      *Series
	served    *Series
	target    *Series
	shortfall *Series
	counts    [nCounts]*Series
	mkt       map[string]*Series
	typ       map[string]*Series

	ledger []Decision
	end    float64
}

// NewRecorder returns a recorder labeled label (usually via
// Collector.Run rather than directly).
func NewRecorder(label string, cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	o := &Recorder{label: label, cfg: cfg}
	o.cost = newSeries("cost_dollars", CounterSeries, cfg.Budget, cfg.Width)
	o.served = newSeries("served_units", GaugeSeries, cfg.Budget, cfg.Width)
	o.target = newSeries("target_units", GaugeSeries, cfg.Budget, cfg.Width)
	o.shortfall = newSeries("shortfall_units", GaugeSeries, cfg.Budget, cfg.Width)
	for k := CountKind(0); k < nCounts; k++ {
		o.counts[k] = newSeries(countNames[k], CounterSeries, cfg.Budget, cfg.Width)
	}
	return o
}

// Label returns the recorder's run label.
func (o *Recorder) Label() string {
	if o == nil {
		return ""
	}
	return o.label
}

// Capacity credits the capacity state that held since the previous call:
// served/target capacity units up to simulated time t. Call it exactly
// where the run's accounting advances (fleet.Controller.advance) so the
// gauge integrals reproduce the report's replica-second sums.
func (o *Recorder) Capacity(t float64, served, target int) {
	if o == nil {
		return
	}
	o.served.until(t, float64(served))
	o.target.until(t, float64(target))
	sf := target - served
	if sf < 0 {
		sf = 0
	}
	o.shortfall.until(t, float64(sf))
}

// Charge records a billing event of amount dollars against a market and
// instance type (refunds are negative).
func (o *Recorder) Charge(t float64, mkt, itype string, amount float64) {
	if o == nil {
		return
	}
	o.cost.add(t, amount)
	o.sub(&o.mkt, "spend:", mkt).add(t, amount)
	o.sub(&o.typ, "spend_type:", itype).add(t, amount)
}

func (o *Recorder) sub(m *map[string]*Series, prefix, key string) *Series {
	if *m == nil {
		*m = map[string]*Series{}
	}
	s, ok := (*m)[key]
	if !ok {
		s = newSeries(prefix+key, CounterSeries, o.cfg.Budget, o.cfg.Width)
		(*m)[key] = s
	}
	return s
}

// Count records one event on counter k.
func (o *Recorder) Count(t float64, k CountKind) {
	if o == nil || k >= nCounts {
		return
	}
	o.counts[k].add(t, 1)
}

// Decide appends one ledger record, stamping the schema version.
func (o *Recorder) Decide(d Decision) {
	if o == nil {
		return
	}
	d.Schema = LedgerSchema
	o.ledger = append(o.ledger, d)
}

// Ledger returns the decisions recorded so far, in order. The slice is
// the recorder's own backing store; callers must not mutate it.
func (o *Recorder) Ledger() []Decision {
	if o == nil {
		return nil
	}
	return o.ledger
}

// Finalize commits the open capacity tail at the end of the run, so
// subsequent snapshots need no fold.
func (o *Recorder) Finalize(t float64, served, target int) {
	if o == nil {
		return
	}
	o.Capacity(t, served, target)
	if t > o.end {
		o.end = t
	}
}

// Snapshot exports the timeline as of simulated time now without
// mutating the recorder: the interval since each gauge's last credit is
// folded into a copy, with served/target the capacity state holding over
// that open tail — the same read-only delta fold fleet reports use, so a
// mid-run snapshot never perturbs later ones or the final export.
func (o *Recorder) Snapshot(now float64, served, target int) Timeline {
	if o == nil {
		return Timeline{}
	}
	if now < o.end {
		now = o.end
	}
	tl := Timeline{
		Schema:    TimelineSchema,
		Label:     o.label,
		End:       now,
		Budget:    o.cfg.Budget,
		Decisions: len(o.ledger),
	}
	fold := func(s *Series, v int) *Series {
		c := s.clone()
		c.until(now, float64(v))
		return c
	}
	sf := target - served
	if sf < 0 {
		sf = 0
	}
	servedS, targetS, sfS := fold(o.served, served), fold(o.target, target), fold(o.shortfall, sf)
	tl.Series = append(tl.Series, o.cost.data(now), servedS.data(now), targetS.data(now), sfS.data(now))
	for k := CountKind(0); k < nCounts; k++ {
		tl.Series = append(tl.Series, o.counts[k].data(now))
	}
	for _, m := range []map[string]*Series{o.mkt, o.typ} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			tl.Series = append(tl.Series, m[k].data(now))
		}
	}
	tl.Alerts = evaluateSLO(sfS, targetS, now)
	if tl.Alerts == nil {
		tl.Alerts = []Alert{}
	}
	return tl
}

// SnapshotFinal exports the timeline of a finalized run (the gauge tails
// were committed by Finalize, so no fold values are needed).
func (o *Recorder) SnapshotFinal() Timeline {
	if o == nil {
		return Timeline{}
	}
	return o.Snapshot(o.end, 0, 0)
}
