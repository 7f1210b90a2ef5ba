// Package scenario loads declarative JSON descriptions of hosting studies
// — which services run where, under which policy and mechanism, over which
// price data, with optional per-service revenue models — and executes them
// as a portfolio. It is the configuration surface of cmd/portfolio, and
// the easiest way for a downstream user to describe an evaluation without
// writing Go.
//
// A minimal scenario:
//
//	{
//	  "seed": 42,
//	  "days": 30,
//	  "services": [
//	    {"name": "shop", "region": "us-east-1a", "type": "medium",
//	     "policy": "proactive", "mechanism": "ckpt-lr-live"}
//	  ]
//	}
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/econ"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/replay"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/tpcw"
	"spothost/internal/trace"
	"spothost/internal/vm"
)

// RevenueDef prices a service's traffic for econ analysis.
type RevenueDef struct {
	RequestsPerSecond  float64 `json:"requests_per_second"`
	RevenuePerRequest  float64 `json:"revenue_per_request"`
	DegradedLossFactor float64 `json:"degraded_loss_factor"`
}

// ServiceDef describes one hosted service.
type ServiceDef struct {
	Name      string   `json:"name"`
	Region    string   `json:"region"`
	Type      string   `json:"type"`
	Policy    string   `json:"policy"`    // on-demand | reactive | proactive | pure-spot
	Mechanism string   `json:"mechanism"` // ckpt | ckpt-lr | ckpt-live | ckpt-lr-live | naive
	VMs       int      `json:"vms"`       // >0: fleet of unit VMs; 0: one market-sized VM
	Markets   []string `json:"markets"`   // "region/type" candidates; empty = home only

	BidMultiple      float64 `json:"bid_multiple"`
	Hysteresis       float64 `json:"hysteresis"`
	StabilityPenalty float64 `json:"stability_penalty"`
	Pessimistic      bool    `json:"pessimistic"`

	StartHour float64 `json:"start_hour"` // virtual launch time, hours
	StopHour  float64 `json:"stop_hour"`  // 0 = run to the end

	Revenue *RevenueDef `json:"revenue"`
}

// FleetDef describes one replicated, autoscaled fleet (internal/fleet):
// a demand-driven replica count spread across spot markets, with
// on-demand fallback and reverse replacement.
type FleetDef struct {
	Name     string   `json:"name"`
	Strategy string   `json:"strategy"` // lowest-price | diversified | stability
	Markets  []string `json:"markets"`  // "region/type" candidates; empty = every market

	// BaseLoad and PeakLoad shape the diurnal demand curve (emulated
	// browsers; defaults 300/1200). PerReplicaLoad sizes replicas with a
	// linear capacity model; TargetMs > 0 instead plans capacity with the
	// TPC-W queueing model at that mean-response-time target.
	BaseLoad       float64 `json:"base_load"`
	PeakLoad       float64 `json:"peak_load"`
	PerReplicaLoad float64 `json:"per_replica_load"`
	TargetMs       float64 `json:"target_ms"`

	TickMinutes       float64 `json:"tick_minutes"`
	BidMultiple       float64 `json:"bid_multiple"`
	MaxReplicas       int     `json:"max_replicas"`
	ReverseHysteresis float64 `json:"reverse_hysteresis"`

	// Catalog turns on heterogeneous placement: "legacy" (the paper's four
	// types) or "default" (the ten-type default catalog), or "custom" with
	// CatalogEntries. AnchorType names the capacity anchor and is required
	// with a catalog; every replica is a compatible type at least as
	// powerful, and capacity is planned in the anchor's units.
	Catalog        string            `json:"catalog"`
	CatalogEntries []CatalogEntryDef `json:"catalog_entries"`
	AnchorType     string            `json:"anchor_type"`
}

// CatalogEntryDef is one custom catalog row (see catalog.Entry): units
// must be a power of two, vcpu >= 1, memory and on-demand price positive.
type CatalogEntryDef struct {
	Name     string  `json:"name"`
	VCPU     int     `json:"vcpu"`
	MemoryGB float64 `json:"memory_gb"`
	Units    int     `json:"units"`
	OnDemand float64 `json:"on_demand"`
}

// Scenario is the top-level document.
type Scenario struct {
	Seed int64   `json:"seed"`
	Days float64 `json:"days"`

	// Traces optionally replays a price file instead of generating
	// synthetic prices. Format: csv | aws-json | aws-legacy.
	Traces       string `json:"traces"`
	TracesFormat string `json:"traces_format"`
	Product      string `json:"product"`

	Services []ServiceDef `json:"services"`
	Fleets   []FleetDef   `json:"fleets"`
}

// Load parses a scenario document.
func Load(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("scenario: parsing: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Validate checks the document before any work happens.
func (sc Scenario) Validate() error {
	if len(sc.Services) == 0 && len(sc.Fleets) == 0 {
		return fmt.Errorf("scenario: no services or fleets")
	}
	if sc.Days <= 0 && sc.Traces == "" {
		return fmt.Errorf("scenario: days must be positive for synthetic prices")
	}
	seen := map[string]bool{}
	for i, s := range sc.Services {
		if s.Name == "" {
			return fmt.Errorf("scenario: service %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("scenario: duplicate service %q", s.Name)
		}
		seen[s.Name] = true
		if s.Region == "" || s.Type == "" {
			return fmt.Errorf("scenario: service %q needs region and type", s.Name)
		}
		if _, err := parsePolicy(s.Policy); err != nil {
			return fmt.Errorf("scenario: service %q: %w", s.Name, err)
		}
		if _, err := parseMechanism(s.Mechanism); err != nil {
			return fmt.Errorf("scenario: service %q: %w", s.Name, err)
		}
		if s.StopHour != 0 && s.StopHour <= s.StartHour {
			return fmt.Errorf("scenario: service %q stops before it starts", s.Name)
		}
		if s.Revenue != nil {
			m := econ.RevenueModel{
				RequestsPerSecond:  s.Revenue.RequestsPerSecond,
				RevenuePerRequest:  s.Revenue.RevenuePerRequest,
				DegradedLossFactor: s.Revenue.DegradedLossFactor,
			}
			if err := m.Validate(); err != nil {
				return fmt.Errorf("scenario: service %q: %w", s.Name, err)
			}
		}
	}
	for i, f := range sc.Fleets {
		if f.Name == "" {
			return fmt.Errorf("scenario: fleet %d has no name", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("scenario: duplicate name %q", f.Name)
		}
		seen[f.Name] = true
		if err := f.Validate(); err != nil {
			return fmt.Errorf("scenario: fleet %q: %w", f.Name, err)
		}
	}
	return nil
}

// resolveCatalog materializes the fleet's catalog configuration: nil for
// a legacy single-type fleet, otherwise a validated catalog with a known
// anchor. All malformed-catalog and unknown-type errors surface here, so
// both scenario loading and the HTTP control plane reject them before any
// simulation work happens.
func (f FleetDef) resolveCatalog() (*catalog.Catalog, error) {
	var cat *catalog.Catalog
	var err error
	if f.Catalog != "custom" && len(f.CatalogEntries) > 0 {
		return nil, fmt.Errorf("catalog_entries requires catalog: \"custom\"")
	}
	switch f.Catalog {
	case "":
	case "legacy":
		cat = catalog.Legacy()
	case "default":
		cat = catalog.Default()
	case "custom":
		if len(f.CatalogEntries) == 0 {
			return nil, fmt.Errorf("catalog \"custom\" requires catalog_entries")
		}
		entries := make([]catalog.Entry, len(f.CatalogEntries))
		for i, e := range f.CatalogEntries {
			entries[i] = catalog.Entry{
				Name:     market.InstanceType(e.Name),
				VCPU:     e.VCPU,
				MemoryGB: e.MemoryGB,
				Units:    e.Units,
				OnDemand: e.OnDemand,
			}
		}
		if cat, err = catalog.New(entries); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown catalog %q (want legacy, default or custom)", f.Catalog)
	}
	if cat == nil {
		if f.AnchorType != "" {
			return nil, fmt.Errorf("anchor_type %q set without a catalog", f.AnchorType)
		}
		return nil, nil
	}
	if f.AnchorType == "" {
		return nil, fmt.Errorf("catalog %q requires anchor_type", f.Catalog)
	}
	if _, ok := cat.Lookup(market.InstanceType(f.AnchorType)); !ok {
		return nil, fmt.Errorf("unknown anchor_type %q", f.AnchorType)
	}
	return cat, nil
}

// TypeSpecs returns the market type universe this fleet needs generated:
// the catalog's types in catalog mode, nil (caller default) otherwise.
func (f FleetDef) TypeSpecs() ([]market.TypeSpec, error) {
	cat, err := f.resolveCatalog()
	if err != nil {
		return nil, err
	}
	if cat == nil {
		return nil, nil
	}
	return cat.TypeSpecs(), nil
}

// strategyName resolves the fleet's strategy name, defaulting to the
// diversified allocation.
func (f FleetDef) strategyName() string {
	if f.Strategy == "" {
		return "diversified"
	}
	return f.Strategy
}

func parsePolicy(s string) (sched.Bidding, error) {
	switch s {
	case "on-demand", "on-demand-only", "baseline":
		return sched.OnDemandOnly, nil
	case "reactive":
		return sched.Reactive, nil
	case "proactive", "":
		return sched.Proactive, nil
	case "pure-spot", "spot":
		return sched.PureSpot, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

func parseMechanism(s string) (vm.Mechanism, error) {
	switch s {
	case "ckpt":
		return vm.CKPT, nil
	case "ckpt-lr":
		return vm.CKPTLazy, nil
	case "ckpt-live":
		return vm.CKPTLive, nil
	case "ckpt-lr-live", "":
		return vm.CKPTLazyLive, nil
	case "naive":
		return vm.Naive, nil
	}
	return 0, fmt.Errorf("unknown mechanism %q", s)
}

func parseMarkets(list []string) ([]market.ID, error) {
	var out []market.ID
	for _, part := range list {
		bits := strings.Split(strings.TrimSpace(part), "/")
		if len(bits) != 2 || bits[0] == "" || bits[1] == "" {
			return nil, fmt.Errorf("bad market %q, want region/type", part)
		}
		out = append(out, market.ID{
			Region: market.Region(bits[0]),
			Type:   market.InstanceType(bits[1]),
		})
	}
	return out, nil
}

// typeSpecs merges the default type universe with every fleet catalog's
// types, so catalog fleets find their markets in the generated set. It
// returns nil when no fleet extends the default universe, keeping
// catalog-free scenarios byte-identical to the pre-catalog generator.
func (sc Scenario) typeSpecs() ([]market.TypeSpec, error) {
	merged := market.DefaultTypes()
	seen := make(map[market.InstanceType]market.TypeSpec, len(merged))
	for _, ts := range merged {
		seen[ts.Name] = ts
	}
	changed := false
	for _, f := range sc.Fleets {
		specs, err := f.TypeSpecs()
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet %q: %w", f.Name, err)
		}
		for _, ts := range specs {
			if prev, ok := seen[ts.Name]; ok {
				if prev != ts {
					return nil, fmt.Errorf("scenario: instance type %q defined twice with different specs", ts.Name)
				}
				continue
			}
			seen[ts.Name] = ts
			merged = append(merged, ts)
			changed = true
		}
	}
	if !changed {
		return nil, nil
	}
	return merged, nil
}

// prices resolves the scenario's market set.
func (sc Scenario) prices() (*market.Set, error) {
	if sc.Traces == "" {
		mcfg := market.DefaultConfig(sc.Seed)
		mcfg.Horizon = sc.Days * sim.Day
		types, err := sc.typeSpecs()
		if err != nil {
			return nil, err
		}
		if types != nil {
			mcfg.Types = types
		}
		return market.Generate(mcfg)
	}
	f, err := os.Open(sc.Traces)
	if err != nil {
		return nil, fmt.Errorf("scenario: opening traces: %w", err)
	}
	defer f.Close()
	opts := replay.Options{Product: sc.Product}
	switch sc.TracesFormat {
	case "", "csv":
		return market.ReadCSV(f)
	case "aws-json":
		return replay.LoadJSON(f, opts)
	case "aws-legacy":
		return replay.LoadLegacy(f, opts)
	}
	return nil, fmt.Errorf("scenario: unknown traces format %q", sc.TracesFormat)
}

// config builds one service's scheduler config.
func (s ServiceDef) config() (sched.Config, error) {
	home := market.ID{Region: market.Region(s.Region), Type: market.InstanceType(s.Type)}
	cfg, err := sched.DefaultConfig(home, market.DefaultTypes())
	if err != nil {
		return cfg, err
	}
	cfg.Bidding, _ = parsePolicy(s.Policy)
	cfg.Mechanism, _ = parseMechanism(s.Mechanism)
	if s.Pessimistic {
		cfg.VMParams = vm.PessimisticParams()
	}
	if s.BidMultiple > 0 {
		cfg.BidMultiple = s.BidMultiple
	}
	if s.Hysteresis > 0 {
		cfg.Hysteresis = s.Hysteresis
	}
	cfg.StabilityPenalty = s.StabilityPenalty
	if len(s.Markets) > 0 {
		ms, err := parseMarkets(s.Markets)
		if err != nil {
			return cfg, err
		}
		cfg.Markets = ms
	}
	if s.VMs > 0 {
		cfg.Service = sched.ServiceSpec{
			VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
			Count: s.VMs,
		}
	}
	return cfg, nil
}

// Defaults for FleetDef fields left zero: a diurnal curve peaking at 4x
// base load, sized linearly at 150 EBs per replica. scenarioPlanQuantum
// keeps TPC-W capacity planning to a handful of queueing simulations per
// scenario run.
const (
	defaultFleetBaseLoad   = 300
	defaultFleetPeakLoad   = 1200
	defaultFleetPerReplica = 150
	scenarioPlanQuantum    = 128
)

// Config builds the fleet controller config this definition describes
// over the given horizon: the exported surface the control plane uses to
// validate and instantiate registered fleets with exactly the semantics
// of a scenario-file fleet (same defaults, same planner selection).
func (f FleetDef) Config(horizon sim.Duration, seed int64) (fleet.Config, error) {
	return f.config(horizon, seed)
}

// Validate checks the definition standalone (outside a Scenario document):
// the same field checks Scenario.Validate applies per fleet.
func (f FleetDef) Validate() error {
	if _, ok := fleet.StrategyFor(f.strategyName()); !ok {
		return fmt.Errorf("unknown strategy %q", f.Strategy)
	}
	if _, err := parseMarkets(f.Markets); err != nil {
		return err
	}
	if f.BaseLoad < 0 || f.PeakLoad < 0 || f.PerReplicaLoad < 0 {
		return fmt.Errorf("negative load")
	}
	if f.PeakLoad > 0 && f.BaseLoad > 0 && f.PeakLoad < f.BaseLoad {
		return fmt.Errorf("peak_load below base_load")
	}
	if f.TargetMs < 0 || f.TickMinutes < 0 || f.BidMultiple < 0 || f.MaxReplicas < 0 {
		return fmt.Errorf("negative parameter")
	}
	if _, err := f.resolveCatalog(); err != nil {
		return err
	}
	return nil
}

// config builds one fleet's controller config over the scenario horizon.
func (f FleetDef) config(horizon sim.Duration, seed int64) (fleet.Config, error) {
	strat, ok := fleet.StrategyFor(f.strategyName())
	if !ok {
		return fleet.Config{}, fmt.Errorf("unknown strategy %q", f.Strategy)
	}
	markets, err := parseMarkets(f.Markets)
	if err != nil {
		return fleet.Config{}, err
	}
	base, peak := f.BaseLoad, f.PeakLoad
	if base <= 0 {
		base = defaultFleetBaseLoad
	}
	if peak <= 0 {
		peak = defaultFleetPeakLoad
	}
	if peak < base {
		peak = base
	}
	dcfg := fleet.DefaultDiurnalConfig(horizon, seed)
	dcfg.Base, dcfg.Peak = base, peak
	demand, err := fleet.NewDiurnalDemand(dcfg)
	if err != nil {
		return fleet.Config{}, err
	}
	cat, err := f.resolveCatalog()
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Markets:           markets,
		Strategy:          strat,
		Demand:            demand,
		Tick:              f.TickMinutes * sim.Minute,
		BidMultiple:       f.BidMultiple,
		MaxReplicas:       f.MaxReplicas,
		ReverseHysteresis: f.ReverseHysteresis,
		Catalog:           cat,
		AnchorType:        market.InstanceType(f.AnchorType),
	}
	if f.TargetMs > 0 {
		max := cfg.MaxReplicas
		if max <= 0 {
			max = fleet.DefaultMaxReplicas
		}
		tcfg := tpcw.DefaultConfig(1, false, true, seed)
		tcfg.Duration = 600
		tcfg.Warmup = 120
		planner, err := fleet.NewTPCWPlanner(tcfg, f.TargetMs, max, scenarioPlanQuantum)
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.Planner = planner
	} else {
		per := f.PerReplicaLoad
		if per <= 0 {
			per = defaultFleetPerReplica
		}
		cfg.Planner = fleet.LinearPlanner{PerReplica: per}
	}
	return cfg, nil
}

// ServiceResult pairs a service's hosting report with its optional
// business analysis.
type ServiceResult struct {
	Name     string
	Report   metrics.Report
	Analysis *econ.Analysis // nil without a revenue model
}

// FleetResult is one fleet's outcome.
type FleetResult struct {
	Name   string
	Report fleet.Report
}

// Result is the whole scenario's outcome.
type Result struct {
	Services []ServiceResult
	Fleets   []FleetResult
	Totals   sched.Totals
}

// RunCtx executes the scenario end to end under a context: a cancel
// aborts the simulation within one engine cancellation-poll batch and
// returns ctx's error, so a serving layer can bound or abandon a scenario
// run. The portfolio records every service onto its own track of one
// "portfolio" run of col, and each fleet records into a run named after
// it; a nil collector traces nothing at no cost.
func (sc Scenario) RunCtx(ctx context.Context, col *trace.Collector) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	set, err := sc.prices()
	if err != nil {
		return Result{}, err
	}
	cp := cloud.DefaultParams(sc.Seed)
	horizon := sc.Days * sim.Day

	var out Result
	if len(sc.Services) > 0 {
		p := sched.NewPortfolio(set, cp)
		prec := col.Run("portfolio")
		p.SetRecorder(prec)
		for _, svc := range sc.Services {
			cfg, err := svc.config()
			if err != nil {
				return Result{}, fmt.Errorf("scenario: service %q: %w", svc.Name, err)
			}
			if err := p.AddAt(svc.StartHour*sim.Hour, svc.Name, cfg); err != nil {
				return Result{}, err
			}
			if svc.StopHour > 0 {
				if err := p.StopAt(svc.StopHour*sim.Hour, svc.Name); err != nil {
					return Result{}, err
				}
			}
		}
		if err := p.RunCtx(ctx, horizon); err != nil {
			return Result{}, err
		}
		col.Done(prec)
		for _, svc := range sc.Services {
			rep, err := p.Report(svc.Name)
			if err != nil {
				return Result{}, err
			}
			sr := ServiceResult{Name: svc.Name, Report: rep}
			if svc.Revenue != nil {
				m := econ.RevenueModel{
					RequestsPerSecond:  svc.Revenue.RequestsPerSecond,
					RevenuePerRequest:  svc.Revenue.RevenuePerRequest,
					DegradedLossFactor: svc.Revenue.DegradedLossFactor,
				}
				a, err := econ.Analyze(m, rep)
				if err != nil {
					return Result{}, err
				}
				sr.Analysis = &a
			}
			out.Services = append(out.Services, sr)
		}
		out.Totals = p.Totals()
	}

	// Each fleet is its own simulation over the same price universe: the
	// controller manages capacity, not individual long-lived VMs, so it
	// shares traces with the portfolio but not a bill.
	horizon = set.ClampHorizon(horizon)
	for _, fd := range sc.Fleets {
		cfg, err := fd.config(horizon, sc.Seed)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: fleet %q: %w", fd.Name, err)
		}
		frec := col.Run(fd.Name)
		rep, err := fleet.RunObsCtx(ctx, set, cp, cfg, horizon, frec, nil)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: fleet %q: %w", fd.Name, err)
		}
		col.Done(frec)
		out.Fleets = append(out.Fleets, FleetResult{Name: fd.Name, Report: rep})
	}
	return out, nil
}

// Render prints the scenario outcome as text.
func (r Result) Render() string {
	var b strings.Builder
	for _, sr := range r.Services {
		fmt.Fprintf(&b, "%-16s cost=%6.1f%%  unavail=%8.4f%%  migrations F/P/R=%d/%d/%d\n",
			sr.Name, 100*sr.Report.NormalizedCost(), 100*sr.Report.Unavailability(),
			sr.Report.Migrations.Forced, sr.Report.Migrations.Planned, sr.Report.Migrations.Reverse)
		if sr.Analysis != nil {
			fmt.Fprintf(&b, "%-16s %s\n", "", sr.Analysis)
		}
	}
	if len(r.Services) > 0 {
		fmt.Fprintf(&b, "portfolio: %d services, cost %.1f%% of on-demand, worst unavailability %.4f%% (%s)\n",
			r.Totals.Services, 100*r.Totals.NormalizedCost(),
			100*r.Totals.WorstUnavailability, r.Totals.WorstService)
	}
	for _, fr := range r.Fleets {
		rep := fr.Report
		fmt.Fprintf(&b, "fleet %-10s %-12s cost=%6.1f%%  shortfall=%7.4f%%  peak=%d  lost=%d  worst-simul=%d  reverse=%d\n",
			fr.Name, rep.Strategy, 100*rep.NormalizedCost(), 100*rep.CapacityShortfall(),
			rep.PeakTarget, rep.ReplicasLost, rep.MaxSimultaneousLoss(), rep.ReverseReplacements)
	}
	return b.String()
}
