package sched

import (
	"fmt"
	"math"

	"spothost/internal/cloud"
	"spothost/internal/forecast"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
	"spothost/internal/vm"
)

// phase is the deployment's state-machine state.
type phase int

const (
	phaseBoot    phase = iota // initial acquisition in progress
	phaseSteady               // service running on the current group
	phasePlanned              // voluntary migration in flight
	phaseForced               // forced migration in flight
	phaseWaiting              // pure-spot: down, waiting for the price to drop
	phaseStopped              // service voluntarily wound down (Stop)
)

// placement classifies where the service currently runs for time-share
// accounting.
type placement int

const (
	placedNone placement = iota
	placedSpot
	placedOnDemand
)

// Scheduler hosts one service on the simulated cloud according to a
// bidding policy and a migration mechanism. Create with New, call Start
// once, run the engine, then collect Report.
type Scheduler struct {
	cfg  Config
	prov *cloud.Provider
	eng  *sim.Engine

	phase  phase
	group  *serverGroup // servers currently hosting the service
	target *serverGroup // in-flight destination during migrations

	// Forced-migration bookkeeping.
	forcedImageDone    bool
	forcedMemLost      bool
	forcedRestoreBegun bool
	forcedDeadline     sim.Time

	decisionEv    *sim.Event
	decideFn      func()       // persistent s.decide closure for scheduling
	pendingTimers []*sim.Event // planned-migration timers, cancelable on abort
	volatility    map[market.ID]*forecast.DecayingMoments

	// Hot-path caches: the precomputed cheapest-market envelope over the
	// candidate set (nil under stability-aware bidding, whose volatility
	// term is not precomputable) and the memoized cheapest on-demand
	// market (on-demand prices are constants).
	envCur         *market.EnvelopeCursor
	odBest         market.ID
	odBestSet      bool
	ckptDaemon     *vm.CheckpointDaemon
	ckptWrittenMB  float64
	events         []Event
	started        bool
	stopped        bool
	stoppedAt      sim.Time
	serviceStart   sim.Time
	down           metrics.DowntimeTracker
	migrations     metrics.MigrationCounts
	instances      []*cloud.Instance
	curPlace       placement
	lastPlaceT     sim.Time
	spotSeconds    float64
	odSeconds      float64
	bootFallbackOD bool

	// Fork bookkeeping (fork.go): an append-only journal of downtime-
	// tracker operations, the checkpoint daemon's run epochs, and the
	// forced-warning log. A fork with a different CheckpointBound replays
	// these under its own parameters instead of copying the metric state.
	downJournal  []downOp
	daemonEpochs []daemonEpoch
	forcedWarns  []ForcedWarning

	// Trace bookkeeping: open span handles into the engine's recorder (all
	// zero — no-ops — when tracing is off). track labels this service's
	// lane in multi-service exports (set by Portfolio.Add).
	track     string
	bootSpan  trace.SpanID
	migSpan   trace.SpanID
	migClass  string
	downSpan  trace.SpanID
	downClass string
	restSpan  trace.SpanID
}

// New builds a scheduler over an existing provider. The configuration is
// validated against the provider's market universe.
func New(prov *cloud.Provider, cfg Config) (*Scheduler, error) {
	if cfg.Types == nil {
		cfg.Types = market.DefaultTypes()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prov.Markets().Trace(cfg.Home) == nil {
		return nil, fmt.Errorf("sched: home market %s not in universe", cfg.Home)
	}
	for _, m := range cfg.Markets {
		if prov.Markets().Trace(m) == nil {
			return nil, fmt.Errorf("sched: market %s not in universe", m)
		}
	}
	s := &Scheduler{cfg: cfg, prov: prov, eng: prov.Engine()}
	s.decideFn = s.decide
	return s, nil
}

// useEnvelope gates the precomputed-envelope fast path in bestSpotMarket;
// tests flip it off to prove the fast path picks exactly what the linear
// scan picks.
var useEnvelope = true

// SetTrack labels this service's lane in trace exports; Portfolio.Add sets
// it to the service name. Must be called before Start.
func (s *Scheduler) SetTrack(name string) { s.track = name }

// tracer returns the run's recorder (nil — a valid no-op — when tracing
// is off). Read lazily from the engine so attachment order doesn't matter.
func (s *Scheduler) tracer() *trace.Recorder { return s.eng.Recorder() }

// traceDown opens the down span for an unavailability interval, labeled by
// the migration class that caused it. No-op if one is already open: a
// forced migration preempting a planned one keeps the original interval.
func (s *Scheduler) traceDown(class string) {
	if s.downSpan != 0 {
		return
	}
	s.downClass = class
	s.downSpan = s.tracer().Begin(trace.KindDown, class, s.track, s.eng.Now())
}

// traceUp closes the open down span, if any, and feeds the downtime
// histogram for its class.
func (s *Scheduler) traceUp() {
	if s.downSpan == 0 {
		return
	}
	r := s.tracer()
	d := r.End(s.downSpan, s.eng.Now())
	r.ObserveDowntime(s.downClass, d)
	s.downSpan = 0
}

// Start launches the service. For spot policies it begins in the cheapest
// grantable market (falling back to on-demand, or waiting, per policy).
func (s *Scheduler) Start() {
	if s.cfg.Bidding == PureSpot {
		// Watch all candidate markets so the waiting state can reacquire.
		for _, m := range s.cfg.Markets {
			m := m
			s.prov.SubscribePrice(m, func(t sim.Time, price float64) {
				if s.phase == phaseWaiting {
					s.tryReacquireSpot()
				}
			})
		}
	}
	s.initEnvelope()
	if s.cfg.StabilityPenalty > 0 {
		// Track each candidate market's decayed price volatility online.
		s.volatility = map[market.ID]*forecast.DecayingMoments{}
		now := s.eng.Now()
		for _, m := range s.cfg.Markets {
			m := m
			dm := forecast.NewDecayingMoments(s.cfg.VolatilityHalflife)
			dm.Observe(now, s.prov.SpotPrice(m))
			s.volatility[m] = dm
			s.prov.SubscribePrice(m, func(t sim.Time, price float64) {
				dm.Observe(t, price)
			})
		}
	}
	s.bootstrap()
}

// initEnvelope precomputes the lower envelope of the candidate markets'
// weighted (servers x price) hourly costs. It is memoized on the immutable
// market set, so concurrent runs over the same universe share one build;
// the per-run cursor makes each scan O(1) amortized. No-op under
// stability-aware bidding, whose volatility term is not precomputable.
func (s *Scheduler) initEnvelope() {
	if s.cfg.StabilityPenalty != 0 || !useEnvelope {
		return
	}
	weights := make([]float64, len(s.cfg.Markets))
	for i, m := range s.cfg.Markets {
		weights[i] = float64(s.cfg.serversFor(m.Type))
	}
	if env := s.prov.Markets().Envelope(s.cfg.Markets, weights); env != nil {
		s.envCur = env.Cursor()
	}
}

func (s *Scheduler) bootstrap() {
	s.phase = phaseBoot
	if s.bootSpan == 0 {
		s.bootSpan = s.tracer().Begin(trace.KindBoot, "", s.track, s.eng.Now())
	}
	if s.cfg.Bidding == OnDemandOnly {
		s.bootOnDemand()
		return
	}
	// Start on spot only when it actually undercuts on-demand right now
	// (a spot market can be grantable under a proactive 4x bid while
	// costing more than on-demand). Pure spot has no such fallback.
	budget := s.hourlyCost(s.cheapestOnDemand(), cloud.OnDemand)
	if s.cfg.Bidding == PureSpot {
		budget = math.Inf(1)
	}
	if m, ok := s.bestSpotMarket(budget); ok {
		g, err := s.acquireGroup(m, cloud.Spot, s.bidFor(m), s.cfg.serversFor(m.Type),
			s.bootReady, s.bootFailed)
		if err == nil {
			s.group = g
			s.logEvent(EvBoot, g, "spot bootstrap")
			return
		}
	}
	// No grantable spot market right now.
	if s.cfg.Bidding == PureSpot {
		s.phase = phaseWaiting
		return
	}
	s.bootOnDemand()
}

func (s *Scheduler) bootOnDemand() {
	m := s.cheapestOnDemand()
	g, err := s.acquireGroup(m, cloud.OnDemand, 0, s.cfg.serversFor(m.Type),
		s.bootReady, s.bootFailed)
	if err != nil {
		panic(fmt.Sprintf("sched: on-demand bootstrap failed: %v", err))
	}
	s.bootFallbackOD = true
	s.group = g
	s.logEvent(EvBoot, g, "on-demand bootstrap")
}

func (s *Scheduler) bootReady(g *serverGroup) {
	if s.phase != phaseBoot || g != s.group {
		return
	}
	now := s.eng.Now()
	if !s.started {
		s.started = true
		s.serviceStart = now
		s.lastPlaceT = now
	}
	s.tracer().End(s.bootSpan, now)
	s.bootSpan = 0
	s.setPlacement(s.placementOf(g))
	s.phase = phaseSteady
	s.logEvent(EvServiceUp, g, "boot complete")
	s.startCheckpointing()
	s.scheduleNextDecision()
}

func (s *Scheduler) bootFailed(g *serverGroup) {
	if s.phase != phaseBoot || g != s.group {
		return
	}
	g.abandon(s.prov)
	s.group = nil
	// Retry: pure spot waits; others fall back to on-demand.
	if s.cfg.Bidding == PureSpot {
		s.phase = phaseWaiting
		return
	}
	s.bootstrap()
}

// --- pricing helpers -----------------------------------------------------

// bidFor returns the policy's bid price in market m.
func (s *Scheduler) bidFor(m market.ID) float64 {
	od := s.prov.OnDemandPrice(m)
	switch s.cfg.Bidding {
	case Proactive:
		bid := s.cfg.BidMultiple * od
		if max := s.prov.MaxBid(m); bid > max {
			bid = max
		}
		return bid
	default: // Reactive, PureSpot
		return od
	}
}

// hourlyCost returns the current hourly cost of hosting the whole service
// in market m with the given lifecycle.
func (s *Scheduler) hourlyCost(m market.ID, lc cloud.Lifecycle) float64 {
	n := float64(s.cfg.serversFor(m.Type))
	if lc == cloud.Spot {
		return n * s.prov.SpotPrice(m)
	}
	return n * s.prov.OnDemandPrice(m)
}

// bestSpotMarket returns the candidate spot market with the lowest current
// score that is grantable (price <= bid) and strictly cheaper than budget.
// The score is the hourly cost, plus — under stability-aware bidding — a
// penalty proportional to the market's recent price volatility.
func (s *Scheduler) bestSpotMarket(budget float64) (market.ID, bool) {
	if s.envCur != nil {
		// Fast path: the envelope yields the first-index argmin of the
		// weighted price over ALL candidates. If it is grantable, it is
		// exactly the market the linear scan below would pick (every
		// earlier candidate scores strictly higher); if its score is not
		// under budget, nothing qualifies. Only a non-grantable argmin
		// (price spiked above its own bid) needs the full scan.
		m, price, weighted := s.envCur.At(s.eng.Now())
		if price <= s.bidFor(m) {
			if weighted < budget {
				return m, true
			}
			return market.ID{}, false
		}
	}
	var best market.ID
	bestScore := budget
	found := false
	for _, m := range s.cfg.Markets {
		price := s.prov.SpotPrice(m)
		if price > s.bidFor(m) {
			continue // not grantable now
		}
		score := s.hourlyCost(m, cloud.Spot)
		if s.cfg.StabilityPenalty > 0 {
			if dm := s.volatility[m]; dm != nil {
				n := float64(s.cfg.serversFor(m.Type))
				score = forecast.Score(score, n*dm.Std(s.eng.Now()), s.cfg.StabilityPenalty)
			}
		}
		if score < bestScore {
			bestScore, best, found = score, m, true
		}
	}
	return best, found
}

// cheapestOnDemand returns the candidate (region, type) with the lowest
// on-demand hourly cost for the service; the home market is always a
// candidate.
func (s *Scheduler) cheapestOnDemand() market.ID {
	if s.odBestSet {
		return s.odBest // on-demand prices never change
	}
	best := s.cfg.Home
	bestCost := s.hourlyCost(best, cloud.OnDemand)
	for _, m := range s.cfg.Markets {
		if c := s.hourlyCost(m, cloud.OnDemand); c < bestCost {
			best, bestCost = m, c
		}
	}
	s.odBest, s.odBestSet = best, true
	return best
}

// onDemandFallback returns the on-demand market forced migrations flee to:
// the same region as the dying group (the checkpoint volume is region
// local), same instance type.
func (s *Scheduler) onDemandFallback(from market.ID) market.ID {
	return from
}

// --- placement accounting ------------------------------------------------

func (s *Scheduler) placementOf(g *serverGroup) placement {
	if g == nil {
		return placedNone
	}
	if g.lifecycle == cloud.Spot {
		return placedSpot
	}
	return placedOnDemand
}

// --- background checkpointing ----------------------------------------------

// startCheckpointing runs the Yank-style daemon while the service sits on
// revocable servers; its writes are charged to the run's I/O accounting.
// The daemon is what guarantees the forced-migration save bound the
// timeline models assume. On-demand placements do not checkpoint (they
// cannot be revoked), and the naive strawman never does.
func (s *Scheduler) startCheckpointing() {
	s.stopCheckpointing()
	if s.cfg.Mechanism == vm.Naive {
		return
	}
	if s.group == nil || s.group.lifecycle != cloud.Spot {
		return
	}
	d, err := vm.NewCheckpointDaemon(s.eng, s.cfg.Service.VM, s.cfg.VMParams)
	if err != nil {
		return // validated configs cannot reach this
	}
	count := float64(s.cfg.Service.Count)
	d.OnWrite(func(mb float64) { s.ckptWrittenMB += mb * count })
	if err := d.Start(); err == nil {
		s.ckptDaemon = d
		s.daemonEpochs = append(s.daemonEpochs, daemonEpoch{start: s.eng.Now(), stop: -1})
	}
}

// stopCheckpointing halts the active daemon, if any.
func (s *Scheduler) stopCheckpointing() {
	if s.ckptDaemon != nil {
		s.ckptDaemon.Stop()
		s.ckptDaemon = nil
		s.daemonEpochs[len(s.daemonEpochs)-1].stop = s.eng.Now()
	}
}

// setPlacement closes the current placement interval and opens a new one.
func (s *Scheduler) setPlacement(p placement) {
	now := s.eng.Now()
	if s.started {
		dt := now - s.lastPlaceT
		switch s.curPlace {
		case placedSpot:
			s.spotSeconds += dt
		case placedOnDemand:
			s.odSeconds += dt
		}
	}
	s.curPlace = p
	s.lastPlaceT = now
}

// --- voluntary migration decisions ----------------------------------------

// decisionLead estimates how long before a billing boundary the decision
// must run so a migration can complete by the boundary: worst-case
// destination startup plus worst-case migration duration plus slack.
func (s *Scheduler) decisionLead() sim.Duration {
	// Startup: spot acquisitions are the slow case (~4 min).
	startup := 300.0
	// Migration duration: evaluate the planned timeline against the worst
	// candidate link.
	worst := 0.0
	cur := s.cfg.Home.Region
	if s.group != nil {
		cur = s.group.market.Region
	}
	for _, m := range s.cfg.Markets {
		var link *vm.WANLink
		if !market.SameRegionClass(cur, m.Region) {
			l := s.cfg.VMParams.Link(cur, m.Region)
			link = &l
		}
		tl := vm.PlannedTimeline(s.cfg.Service.VM, s.cfg.Mechanism, s.cfg.VMParams, link)
		if tl.Duration > worst {
			worst = tl.Duration
		}
	}
	return startup + worst + float64(s.cfg.DecisionSlack)
}

// scheduleNextDecision arms the placement check before the current group's
// next billing-hour boundary.
func (s *Scheduler) scheduleNextDecision() {
	if s.cfg.Bidding == OnDemandOnly || s.cfg.Bidding == PureSpot {
		return // no voluntary movement
	}
	if s.phase != phaseSteady || s.group == nil || len(s.group.insts) == 0 {
		return
	}
	if s.decisionEv != nil {
		s.eng.Cancel(s.decisionEv)
	}
	now := s.eng.Now()
	anchor := s.group.insts[0]
	boundary := anchor.NextHourBoundary(now)
	at := boundary - s.decisionLead()
	for at <= now {
		boundary += sim.Hour
		at = boundary - s.decisionLead()
	}
	s.decisionEv = s.eng.Schedule(at, s.decideFn)
}

// decide evaluates the market and begins a voluntary migration when a
// sufficiently cheaper placement exists.
func (s *Scheduler) decide() {
	if s.phase != phaseSteady || s.group == nil {
		return
	}
	curLC := s.group.lifecycle
	curCost := s.hourlyCost(s.group.market, curLC)

	odM := s.cheapestOnDemand()
	odCost := s.hourlyCost(odM, cloud.OnDemand)
	spotM, spotOK := s.bestSpotMarket(math.Inf(1))
	// Never move to the market we're already in.
	if spotOK && curLC == cloud.Spot && spotM == s.group.market {
		spotOK = false
	}
	spotCost := math.Inf(1)
	if spotOK {
		spotCost = s.hourlyCost(spotM, cloud.Spot)
	}

	// Reactive policy never *plans* a move off spot: its bid equals the
	// on-demand price, so the provider revokes it first. It only performs
	// reverse migrations (and, with multiple markets, spot->spot moves are
	// likewise proactive-only).
	if s.cfg.Bidding == Reactive && curLC == cloud.Spot {
		s.scheduleNextDecision()
		return
	}

	improve := func(c float64) bool { return c < curCost*(1-s.cfg.Hysteresis) }

	switch {
	case spotOK && spotCost <= odCost && improve(spotCost):
		s.beginPlannedMigration(spotM, cloud.Spot)
	case curLC == cloud.Spot && improve(odCost):
		// No cheaper spot market: on-demand is the better home.
		s.beginPlannedMigration(odM, cloud.OnDemand)
	default:
		s.scheduleNextDecision()
	}
}

// beginPlannedMigration acquires the destination group and, once it is
// ready, runs the voluntary migration timeline.
func (s *Scheduler) beginPlannedMigration(m market.ID, lc cloud.Lifecycle) {
	bid := 0.0
	if lc == cloud.Spot {
		bid = s.bidFor(m)
	}
	g, err := s.acquireGroup(m, lc, bid, s.cfg.serversFor(m.Type),
		s.plannedTargetReady, s.plannedTargetFailed)
	if err != nil {
		// Race: the target market moved; stay put and re-evaluate at the
		// next boundary.
		s.scheduleNextDecision()
		return
	}
	s.phase = phasePlanned
	s.target = g
	s.migClass = "planned"
	if s.group.lifecycle == cloud.OnDemand && lc == cloud.Spot {
		s.migClass = "reverse"
	}
	s.migSpan = s.tracer().Begin(trace.KindMigration, s.migClass, s.track, s.eng.Now())
	s.logEvent(EvMigrationStart, g, "voluntary destination requested")
}

func (s *Scheduler) plannedTargetFailed(g *serverGroup) {
	if s.phase != phasePlanned || g != s.target {
		return
	}
	g.abandon(s.prov)
	s.target = nil
	s.phase = phaseSteady
	s.tracer().EndWith(s.migSpan, s.eng.Now(), "aborted")
	s.migSpan = 0
	s.logEvent(EvMigrationAborted, g, "destination failed before hand-off")
	s.scheduleNextDecision()
}

func (s *Scheduler) plannedTargetReady(g *serverGroup) {
	if s.phase != phasePlanned || g != s.target {
		return
	}
	now := s.eng.Now()
	var link *vm.WANLink
	cross := !market.SameRegionClass(s.group.market.Region, g.market.Region)
	if cross {
		l := s.cfg.VMParams.Link(s.group.market.Region, g.market.Region)
		link = &l
	}
	tl := vm.PlannedTimeline(s.cfg.Service.VM, s.cfg.Mechanism, s.cfg.VMParams, link)

	downAt := now + (tl.Duration - tl.Downtime)
	doneAt := now + tl.Duration
	reverse := s.group.lifecycle == cloud.OnDemand && g.lifecycle == cloud.Spot

	ev1 := s.eng.Schedule(downAt, func() {
		if s.phase == phasePlanned && s.target == g && tl.Downtime > 0 {
			s.markDown(s.eng.Now())
			s.traceDown(s.migClass)
		}
	})
	ev2 := s.eng.Schedule(doneAt, func() {
		if s.phase != phasePlanned || s.target != g {
			return
		}
		s.markUp(s.eng.Now())
		s.traceUp()
		s.addDegraded(tl.Degraded)
		if reverse {
			s.migrations.Reverse++
		} else {
			s.migrations.Planned++
		}
		if cross {
			s.migrations.CrossRegion++
		}
		if tl.MemoryLost {
			s.migrations.MemoryLost++
		}
		r := s.tracer()
		r.ObserveMigration(s.migClass, r.End(s.migSpan, s.eng.Now()))
		s.migSpan = 0
		if o := s.eng.Obs(); o != nil {
			o.Count(float64(s.eng.Now()), obs.CountMigration)
		}
		old := s.group
		s.group = g
		s.target = nil
		s.pendingTimers = nil
		old.abandon(s.prov)
		s.setPlacement(s.placementOf(g))
		s.phase = phaseSteady
		if reverse {
			s.logEvent(EvMigrationDone, g, "reverse migration complete")
		} else {
			s.logEvent(EvMigrationDone, g, "planned migration complete")
		}
		s.startCheckpointing()
		s.scheduleNextDecision()
	})
	s.pendingTimers = []*sim.Event{ev1, ev2}
}

// cancelPlanned aborts an in-flight voluntary migration (used when a
// forced migration preempts it).
func (s *Scheduler) cancelPlanned() {
	for _, ev := range s.pendingTimers {
		s.eng.Cancel(ev)
	}
	s.pendingTimers = nil
	if s.target != nil {
		s.target.abandon(s.prov)
		s.target = nil
	}
	s.tracer().EndWith(s.migSpan, s.eng.Now(), "aborted")
	s.migSpan = 0
}

// --- forced migration ------------------------------------------------------

// onWarning handles a revocation warning on any group member.
func (s *Scheduler) onWarning(g *serverGroup, in *cloud.Instance, deadline sim.Time) {
	if g.abandoned {
		return
	}
	switch {
	case g == s.group:
		if !g.ready {
			// The group died during acquisition: this is a failed boot,
			// not a forced migration (the service never ran here).
			s.onTerminated(g, in, cloud.ReasonRevoked)
			return
		}
		// Current servers are dying.
		if s.phase == phaseForced {
			return // already handling (other members of the same group)
		}
		if s.phase == phasePlanned {
			s.cancelPlanned()
		}
		s.beginForcedMigration(deadline)
	case g == s.target:
		// The voluntary destination is dying before we moved: abandon it
		// and stay put.
		if s.phase == phasePlanned {
			s.plannedTargetFailed(g)
		} else if s.phase == phaseForced {
			// Forced destination dying (it was a spot group adopted as a
			// destination — should not happen since forced targets are
			// on-demand; guard anyway).
			s.retargetForced()
		}
	default:
		// Warning for an abandoned group: nothing to do.
	}
}

// beginForcedMigration runs the forced path: request on-demand servers in
// the same region immediately (typical model) or at termination
// (pessimistic), suspend the VMs at the last safe moment, and restore when
// both the image and the destination are ready.
//
// Pure-spot never falls back to on-demand: the service goes down at
// suspend time and waits for the market.
func (s *Scheduler) beginForcedMigration(deadline sim.Time) {
	now := s.eng.Now()
	s.phase = phaseForced
	s.forcedDeadline = deadline
	s.forcedImageDone = false
	s.forcedRestoreBegun = false
	s.tracer().Instant(trace.KindWarning, "", s.track, now)
	s.migClass = "forced"
	s.migSpan = s.tracer().Begin(trace.KindMigration, "forced", s.track, now)
	s.logEvent(EvWarning, s.group, fmt.Sprintf("revocation warning, %.0fs grace", deadline-now))
	if s.decisionEv != nil {
		s.eng.Cancel(s.decisionEv)
		s.decisionEv = nil
	}
	s.migrations.Forced++

	// The dying VMs suspend inside the grace window; background
	// checkpointing on them is over.
	s.stopCheckpointing()

	grace := deadline - now
	tau := float64(s.cfg.VMParams.CheckpointBound)
	naive := s.cfg.Mechanism == vm.Naive
	s.forcedWarns = append(s.forcedWarns, ForcedWarning{At: now, Grace: grace})
	s.forcedMemLost = naive || grace < tau
	if s.forcedMemLost {
		s.migrations.MemoryLost++
	}

	// Suspend at the last safe moment (bounded incremental save), or lose
	// the memory state at termination.
	downClass := "forced"
	if s.cfg.Bidding == PureSpot {
		// Pure spot has no fallback: the interval that starts at suspend is
		// time spent waiting for the market, not migrating.
		downClass = "waiting"
	}
	if s.forcedMemLost {
		s.eng.Post(deadline, func() {
			s.markForcedDown(deadline, grace, true)
			s.tracer().Instant(trace.KindSuspend, "memlost", s.track, s.eng.Now())
			s.traceDown(downClass)
			s.logEvent(EvSuspend, s.group, "terminated without checkpoint (memory lost)")
			s.forcedImageDone = true // nothing to save; disk-only restart
			s.maybeRestore()
		})
	} else {
		s.eng.Post(deadline-tau, func() {
			s.markForcedDown(deadline, grace, false)
			s.tracer().Instant(trace.KindSuspend, "checkpoint", s.track, s.eng.Now())
			s.traceDown(downClass)
			s.logEvent(EvSuspend, s.group, "suspended for final increment")
		})
		s.eng.Post(deadline, func() {
			s.forcedImageDone = true
			s.maybeRestore()
		})
	}

	if s.cfg.Bidding == PureSpot {
		// No on-demand fallback: enter the waiting state at termination.
		s.eng.Post(deadline, func() {
			s.phase = phaseWaiting
			s.setPlacement(placedNone)
			s.tracer().EndWith(s.migSpan, s.eng.Now(), "pure-spot waiting")
			s.migSpan = 0
			s.logEvent(EvWaiting, nil, "pure spot: waiting for the price to drop")
			s.tryReacquireSpot()
		})
		return
	}

	requestDest := func() {
		m := s.onDemandFallback(s.group.market)
		g, err := s.acquireGroup(m, cloud.OnDemand, 0, s.cfg.serversFor(m.Type),
			s.forcedTargetReady, func(*serverGroup) { s.retargetForced() })
		if err != nil {
			panic(fmt.Sprintf("sched: forced on-demand acquisition failed: %v", err))
		}
		s.target = g
	}
	// The naive strawman does not react to the warning at all: it only
	// requests a replacement after the server is gone (Fig. 3). The
	// pessimistic parameter set likewise forbids overlapping acquisition
	// with the grace window.
	if s.cfg.VMParams.AcquireOverlap && !naive {
		requestDest()
	} else {
		s.eng.Post(deadline, requestDest)
	}
}

// retargetForced replaces a failed forced destination with a fresh
// on-demand group.
func (s *Scheduler) retargetForced() {
	if s.phase != phaseForced {
		return
	}
	if s.target != nil {
		s.target.abandon(s.prov)
		s.target = nil
	}
	m := s.onDemandFallback(s.group.market)
	g, err := s.acquireGroup(m, cloud.OnDemand, 0, s.cfg.serversFor(m.Type),
		s.forcedTargetReady, func(*serverGroup) { s.retargetForced() })
	if err != nil {
		panic(fmt.Sprintf("sched: forced on-demand reacquisition failed: %v", err))
	}
	s.target = g
}

func (s *Scheduler) forcedTargetReady(g *serverGroup) {
	if s.phase != phaseForced || g != s.target {
		return
	}
	s.maybeRestore()
}

// maybeRestore begins the restore once both the checkpoint image is
// complete and the destination group is running.
func (s *Scheduler) maybeRestore() {
	if s.phase != phaseForced || !s.forcedImageDone || s.forcedRestoreBegun {
		return
	}
	if s.target == nil || !s.target.ready {
		return
	}
	s.forcedRestoreBegun = true
	now := s.eng.Now()
	var downtime sim.Duration
	var degraded sim.Duration
	p := s.cfg.VMParams
	switch {
	case s.forcedMemLost:
		downtime = p.BootTime
	case s.cfg.Mechanism.LazyRestore():
		downtime = p.LazyRestoreDowntime
		degraded = p.FullRestoreTime(s.cfg.Service.VM)
	default:
		downtime = p.FullRestoreTime(s.cfg.Service.VM)
	}
	g := s.target
	s.restSpan = s.tracer().Begin(trace.KindRestore, "", s.track, now)
	s.logEvent(EvRestore, g, fmt.Sprintf("restore started, %.0fs to resume", downtime))
	s.eng.Post(now+downtime, func() {
		if s.phase != phaseForced || s.target != g {
			return
		}
		s.markUp(s.eng.Now())
		s.addDegraded(degraded)
		r := s.tracer()
		r.ObserveRestore(r.End(s.restSpan, s.eng.Now()))
		s.restSpan = 0
		s.traceUp()
		r.ObserveMigration("forced", r.End(s.migSpan, s.eng.Now()))
		s.migSpan = 0
		if o := s.eng.Obs(); o != nil {
			o.Count(float64(s.eng.Now()), obs.CountMigration)
		}
		s.group = g
		s.target = nil
		s.setPlacement(s.placementOf(g))
		s.phase = phaseSteady
		s.logEvent(EvServiceUp, g, "forced migration complete")
		s.startCheckpointing()
		s.scheduleNextDecision()
	})
}

// --- pure-spot waiting -----------------------------------------------------

// tryReacquireSpot attempts to come back from the waiting state. Called on
// every price change of a candidate market (and at entry to the state).
func (s *Scheduler) tryReacquireSpot() {
	if s.phase != phaseWaiting {
		return
	}
	m, ok := s.bestSpotMarket(math.Inf(1))
	if !ok {
		return
	}
	g, err := s.acquireGroup(m, cloud.Spot, s.bidFor(m), s.cfg.serversFor(m.Type),
		s.waitingReady, s.waitingFailed)
	if err != nil {
		return // price moved between the event and the request; keep waiting
	}
	s.phase = phaseBoot // reuse boot handling semantics for "ready"
	s.group = g
}

func (s *Scheduler) waitingReady(g *serverGroup) {
	if g != s.group {
		return
	}
	now := s.eng.Now()
	// Restore from the last checkpoint on the re-acquired spot server.
	var downtime sim.Duration
	var degraded sim.Duration
	p := s.cfg.VMParams
	switch {
	case s.cfg.Mechanism == vm.Naive:
		downtime = p.BootTime
	case s.cfg.Mechanism.LazyRestore():
		downtime = p.LazyRestoreDowntime
		degraded = p.FullRestoreTime(s.cfg.Service.VM)
	default:
		downtime = p.FullRestoreTime(s.cfg.Service.VM)
	}
	if !s.started {
		// First launch: no restore needed, nothing was running before.
		s.bootReady(g)
		return
	}
	s.restSpan = s.tracer().Begin(trace.KindRestore, "", s.track, now)
	s.eng.Post(now+downtime, func() {
		if s.group != g || g.abandoned || !g.alive() {
			return // re-acquired server was lost again mid-restore
		}
		s.markUp(s.eng.Now())
		s.addDegraded(degraded)
		r := s.tracer()
		r.ObserveRestore(r.End(s.restSpan, s.eng.Now()))
		s.restSpan = 0
		s.traceUp()
		s.setPlacement(placedSpot)
		s.phase = phaseSteady
		s.logEvent(EvServiceUp, g, "re-acquired spot capacity")
		s.startCheckpointing()
	})
}

func (s *Scheduler) waitingFailed(g *serverGroup) {
	if g != s.group {
		return
	}
	g.abandon(s.prov)
	s.group = nil
	s.phase = phaseWaiting
}

// --- terminations ----------------------------------------------------------

// onTerminated keeps group failure detection honest: if a member of a
// not-yet-ready group dies (never granted, or revoked before the rest
// booted), the whole acquisition failed.
func (s *Scheduler) onTerminated(g *serverGroup, in *cloud.Instance, reason cloud.TerminationReason) {
	if g.abandoned || g.ready {
		return
	}
	if reason == cloud.ReasonUser {
		return // our own abandon
	}
	if g.onFailed != nil {
		failed := g.onFailed
		g.onFailed = nil // fire once
		failed(g)
	}
}

// --- reporting ---------------------------------------------------------------

// Report assembles the run outcome as of the engine's current time (or
// the stop instant for stopped services).
func (s *Scheduler) Report() metrics.Report {
	now := s.eng.Now()
	if s.stopped {
		now = s.stoppedAt
	} else {
		s.setPlacement(s.curPlace) // close the open placement interval
	}

	cost := 0.0
	for _, in := range s.instances {
		cost += in.Charged()
	}
	horizon := sim.Duration(0)
	if s.started {
		horizon = now - s.serviceStart
	}
	// Baseline: the same service on on-demand servers of the home type
	// for the same horizon.
	n := float64(s.cfg.serversFor(s.cfg.Home.Type))
	hours := math.Ceil(float64(horizon) / sim.Hour)
	baseline := n * s.prov.OnDemandPrice(s.cfg.Home) * hours

	return metrics.Report{
		Policy:          s.cfg.Bidding.String(),
		Mechanism:       s.cfg.Mechanism.String(),
		Horizon:         horizon,
		VMs:             s.cfg.Service.Count,
		Cost:            cost,
		BaselineCost:    baseline,
		SpotSeconds:     s.spotSeconds,
		OnDemandSeconds: s.odSeconds,
		DowntimeSeconds: float64(s.down.Total(now)),
		DegradedSeconds: float64(s.down.Degraded()),
		DownEpisodes:    s.down.Episodes(),
		LongestDowntime: s.down.Longest(),
		Migrations:      s.migrations,
		DowntimeLog:     s.down.Log(),
		CheckpointGB:    s.ckptWrittenMB / 1024,
	}
}

// Stop winds the service down voluntarily: pending decisions are
// cancelled, in-flight migrations abandoned, every live instance
// terminated, and accounting closed. A stopped service accrues neither
// cost nor downtime; its report covers launch-to-stop. Idempotent.
func (s *Scheduler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.stoppedAt = s.eng.Now()
	if s.decisionEv != nil {
		s.eng.Cancel(s.decisionEv)
		s.decisionEv = nil
	}
	s.cancelPlanned()
	s.stopCheckpointing()
	if s.group != nil {
		s.group.abandon(s.prov)
		s.group = nil
	}
	// An intentional shutdown is not an availability violation: close any
	// open downtime episode at the stop instant.
	s.markUp(s.stoppedAt)
	s.traceUp()
	s.tracer().End(s.bootSpan, s.stoppedAt)
	s.bootSpan = 0
	s.setPlacement(placedNone)
	s.phase = phaseStopped
	s.logEvent(EvStopped, nil, "service stopped")
}

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Phase returns a debug label of the current state.
func (s *Scheduler) Phase() string {
	switch s.phase {
	case phaseBoot:
		return "boot"
	case phaseSteady:
		return "steady"
	case phasePlanned:
		return "planned-migration"
	case phaseForced:
		return "forced-migration"
	case phaseWaiting:
		return "waiting"
	default:
		return "stopped"
	}
}
