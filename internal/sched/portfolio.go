package sched

import (
	"context"
	"fmt"
	"sort"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Portfolio hosts several independent services on one simulated cloud: one
// engine, one provider, one price universe, many schedulers. This is the
// service provider's view — e.g. a SaaS vendor running every customer's
// deployment through the spot machinery and reading one consolidated bill.
type Portfolio struct {
	eng     *sim.Engine
	prov    *cloud.Provider
	names   []string
	scheds  map[string]*Scheduler
	startAt map[string]sim.Time
	stopAt  map[string]sim.Time
	ran     bool
}

// NewPortfolio builds an empty portfolio over a price universe.
func NewPortfolio(set *market.Set, params cloud.Params) *Portfolio {
	eng := sim.NewEngine()
	return &Portfolio{
		eng:     eng,
		prov:    cloud.NewProvider(eng, set, params),
		scheds:  map[string]*Scheduler{},
		startAt: map[string]sim.Time{},
		stopAt:  map[string]sim.Time{},
	}
}

// Provider exposes the shared provider (for inspection in tests and
// examples).
func (p *Portfolio) Provider() *cloud.Provider { return p.prov }

// SetRecorder attaches a trace recorder to the portfolio's shared engine.
// Each service records into its own track (named after the service), so a
// multi-service run exports one process with one lane per service. Attach
// before Run; a nil recorder is a no-op.
func (p *Portfolio) SetRecorder(rec *trace.Recorder) { p.eng.SetRecorder(rec) }

// Add registers a named service that starts at time 0. Services must be
// added before Run.
func (p *Portfolio) Add(name string, cfg Config) error {
	return p.AddAt(0, name, cfg)
}

// AddAt registers a named service that launches at virtual time at —
// elastic capacity that joins the fleet mid-run (a surge shard, a
// regional expansion). Services must be registered before Run.
func (p *Portfolio) AddAt(at sim.Time, name string, cfg Config) error {
	if p.ran {
		return fmt.Errorf("sched: portfolio already ran")
	}
	if name == "" {
		return fmt.Errorf("sched: empty service name")
	}
	if at < 0 {
		return fmt.Errorf("sched: negative start time %v", at)
	}
	if _, dup := p.scheds[name]; dup {
		return fmt.Errorf("sched: duplicate service %q", name)
	}
	s, err := New(p.prov, cfg)
	if err != nil {
		return fmt.Errorf("sched: service %q: %w", name, err)
	}
	s.SetTrack(name)
	p.scheds[name] = s
	p.names = append(p.names, name)
	p.startAt[name] = at
	return nil
}

// StopAt schedules a registered service's voluntary shutdown at virtual
// time at. Must be called before Run; stopping before the service's start
// time is rejected.
func (p *Portfolio) StopAt(at sim.Time, name string) error {
	if p.ran {
		return fmt.Errorf("sched: portfolio already ran")
	}
	if _, ok := p.scheds[name]; !ok {
		return fmt.Errorf("sched: unknown service %q", name)
	}
	if at <= p.startAt[name] {
		return fmt.Errorf("sched: stop time %v not after start %v for %q", at, p.startAt[name], name)
	}
	p.stopAt[name] = at
	return nil
}

// Services returns the registered service names in insertion order.
func (p *Portfolio) Services() []string {
	return append([]string(nil), p.names...)
}

// Run starts every service and executes the simulation to the horizon
// (clamped to the universe extent). It can only be called once.
func (p *Portfolio) Run(horizon sim.Duration) error {
	return p.RunCtx(context.Background(), horizon)
}

// RunCtx is Run under a context: the shared engine polls ctx while
// executing, and a cancel aborts the whole portfolio within one
// cancellation-poll batch, returning ctx's error.
func (p *Portfolio) RunCtx(ctx context.Context, horizon sim.Duration) error {
	if p.ran {
		return fmt.Errorf("sched: portfolio already ran")
	}
	if len(p.scheds) == 0 {
		return fmt.Errorf("sched: empty portfolio")
	}
	p.ran = true
	horizon = p.prov.Markets().ClampHorizon(horizon)
	for _, name := range p.names {
		s := p.scheds[name]
		if at := p.startAt[name]; at > 0 {
			p.eng.Post(at, s.Start)
		} else {
			s.Start()
		}
		if at, ok := p.stopAt[name]; ok {
			p.eng.Post(at, s.Stop)
		}
	}
	err := p.eng.RunUntilCtx(ctx, horizon)
	if err == nil {
		p.eng.Recorder().CloseOpen(p.eng.Now())
	}
	return err
}

// Report returns one service's report.
func (p *Portfolio) Report(name string) (metrics.Report, error) {
	s, ok := p.scheds[name]
	if !ok {
		return metrics.Report{}, fmt.Errorf("sched: unknown service %q", name)
	}
	return s.Report(), nil
}

// Events returns one service's per-run event log (placements,
// migrations, revocations), in time order. Before Run the log is empty.
func (p *Portfolio) Events(name string) ([]Event, error) {
	s, ok := p.scheds[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown service %q", name)
	}
	return s.Events(), nil
}

// Reports returns every service's report keyed by name.
func (p *Portfolio) Reports() map[string]metrics.Report {
	out := make(map[string]metrics.Report, len(p.scheds))
	for name, s := range p.scheds {
		out[name] = s.Report()
	}
	return out
}

// Totals is the consolidated portfolio outcome.
type Totals struct {
	Services int
	// Cost and BaselineCost are summed across services.
	Cost         float64
	BaselineCost float64
	// MeanUnavailability is VM-weighted across services; Worst is the
	// single worst service.
	MeanUnavailability  float64
	WorstUnavailability float64
	WorstService        string
	// Migrations sums all services' counts.
	Migrations metrics.MigrationCounts
}

// NormalizedCost returns the consolidated cost fraction.
func (t Totals) NormalizedCost() float64 {
	if t.BaselineCost == 0 {
		return 0
	}
	return t.Cost / t.BaselineCost
}

// Totals consolidates all service reports.
func (p *Portfolio) Totals() Totals {
	var t Totals
	var weighted, weight float64
	names := p.Services()
	sort.Strings(names)
	for _, name := range names {
		r := p.scheds[name].Report()
		t.Services++
		t.Cost += r.Cost
		t.BaselineCost += r.BaselineCost
		w := float64(r.VMs) * float64(r.Horizon)
		weighted += r.Unavailability() * w
		weight += w
		if u := r.Unavailability(); u >= t.WorstUnavailability {
			if u > t.WorstUnavailability || t.WorstService == "" {
				t.WorstUnavailability, t.WorstService = u, name
			}
		}
		t.Migrations.Forced += r.Migrations.Forced
		t.Migrations.Planned += r.Migrations.Planned
		t.Migrations.Reverse += r.Migrations.Reverse
		t.Migrations.CrossRegion += r.Migrations.CrossRegion
		t.Migrations.MemoryLost += r.Migrations.MemoryLost
	}
	if weight > 0 {
		t.MeanUnavailability = weighted / weight
	}
	return t
}
