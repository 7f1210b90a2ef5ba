package sched

import (
	"fmt"
	"math"
	"slices"

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
	// volatility holds each candidate market's price volatility, indexed
	// like cfg.Markets; nil unless stability-aware bidding is on.
	volatility []forecast.Volatility

	// Per-candidate state, indexed like cands (cfg.Markets, then Home when
	// it is not a candidate) and built in New, so the decision path indexes
	// instead of hashing a market.ID. A group's idx is the first index of
	// its market, so equal indices mean equal markets.
	cands      []market.ID
	mktServers []float64        // servers the service needs there, as hourlyCost multiplies
	mktBid     []float64        // the policy's spot bid; see New
	mktOD      []float64        // fixed on-demand price
	mktPrice   []*market.Cursor // spot price source, same trace as the provider's
	mktLead    []sim.Duration   // decisionLead from the market's region; 0 until needed

	// Hot-path caches: the precomputed cheapest-market envelope over the
	// candidate set (nil under stability-aware bidding, whose volatility
	// term is not precomputable) and the cheapest on-demand candidate with
	// its hourly cost, computed in New (on-demand prices are constants).
	envCur         *market.EnvelopeCursor
	odBest         int
	odBestCost     float64
	ckptWrittenMB  float64
	started        bool
	stopped        bool
	stoppedAt      sim.Time
	serviceStart   sim.Time
	migrations     metrics.MigrationCounts
	instances      []cloud.InstanceID // every instance requested, resolved through prov
	curPlace       placement
	lastPlaceT     sim.Time
	spotSeconds    float64
	odSeconds      float64
	bootFallbackOD bool

	// Fork bookkeeping (fork.go): an append-only journal of downtime-
	// tracker operations (the run's only downtime record, replayed by
	// Report), the checkpoint daemon's closed run epochs, and the
	// forced-warning log. A fork with a different CheckpointBound replays
	// these under its own parameters instead of copying the metric state.
	downJournal  []downOp
	daemonEpochs []daemonEpoch
	forcedWarns  []ForcedWarning

	// Background checkpointing: the open daemon epoch's write schedule
	// (nil when none is open), its start, its posting order, and the clock
	// folding it with every other scheduler's on the same engine
	// (ckpt.go).
	ckpt      *vm.Daemon
	ckptStart sim.Time
	ckptSeq   uint64
	ckptClock *ckptClock

	// Trace bookkeeping: open span handles into the engine's recorder (all
	// zero — no-ops — when tracing is off). track labels this service's
	// lane in multi-service exports (set by Portfolio.AddAt).
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
	s := &Scheduler{cfg: cfg, prov: prov, eng: prov.Engine(), ckptClock: &ckptClock{}}
	s.decideFn = s.decide
	s.cands = cfg.Markets
	home := slices.Index(s.cands, cfg.Home)
	if home < 0 {
		home = len(s.cands)
		s.cands = append(slices.Clip(s.cands), cfg.Home)
	}
	n := len(s.cands)
	s.mktServers = make([]float64, n)
	s.mktBid = make([]float64, n)
	s.mktOD = make([]float64, n)
	s.mktPrice = make([]*market.Cursor, n)
	s.mktLead = make([]sim.Duration, n)
	for i, m := range s.cands {
		od := prov.OnDemandPrice(m)
		s.mktServers[i] = float64(s.cfg.ServersFor(m.Type))
		s.mktOD[i] = od
		// Proactive bids min(BidMultiple x od, the provider's cap); the
		// others bid the on-demand price.
		s.mktBid[i] = od
		if cfg.Bidding == Proactive {
			s.mktBid[i] = cfg.BidMultiple * od
			if max := prov.MaxBid(m); s.mktBid[i] > max {
				s.mktBid[i] = max
			}
		}
		s.mktPrice[i] = market.NewCursor(prov.Markets().Trace(m))
	}
	s.odBest = s.cheapestOnDemand(home)
	s.odBestCost = s.hourlyCost(s.odBest, cloud.OnDemand)
	return s, nil
}

// useEnvelope gates the precomputed-envelope fast path in bestSpotMarket;
// tests flip it off to prove the fast path picks exactly what the linear
// scan picks.
var useEnvelope = true

// SetTrack labels this service's lane in trace exports; Portfolio.AddAt sets
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
		now := s.eng.Now()
		s.volatility = make([]forecast.Volatility, len(s.cfg.Markets))
		for i, m := range s.cfg.Markets {
			s.volatility[i] = forecast.NewVolatility(s.prov.Markets().Trace(m), now)
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
	weights := s.mktServers[:len(s.cfg.Markets)]
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
	budget := s.odBestCost
	if s.cfg.Bidding == PureSpot {
		budget = math.Inf(1)
	}
	if i, ok := s.bestSpotMarket(budget); ok {
		g, err := s.acquireGroup(i, cloud.Spot, s.bootReady, s.bootFailed)
		if err == nil {
			s.group = g
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
	g, err := s.acquireGroup(s.odBest, cloud.OnDemand, s.bootReady, s.bootFailed)
	if err != nil {
		panic(fmt.Sprintf("sched: on-demand bootstrap failed: %v", err))
	}
	s.bootFallbackOD = true
	s.group = g
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

// spotPrice returns the current spot price of market cands[i].
func (s *Scheduler) spotPrice(i int) float64 {
	return s.mktPrice[i].PriceAt(s.eng.Now())
}

// hourlyCost returns the current hourly cost of hosting the whole service
// in market cands[i] with the given lifecycle.
func (s *Scheduler) hourlyCost(i int, lc cloud.Lifecycle) float64 {
	if lc == cloud.Spot {
		return s.mktServers[i] * s.spotPrice(i)
	}
	return s.mktServers[i] * s.mktOD[i]
}

// bestSpotMarket returns the index of the candidate spot market with the
// lowest current score that is grantable (price <= bid) and strictly
// cheaper than budget. The score is the hourly cost, plus — under
// stability-aware bidding — a penalty proportional to the market's recent
// price volatility.
func (s *Scheduler) bestSpotMarket(budget float64) (int, bool) {
	if s.envCur != nil {
		// Fast path: the envelope yields the first-index argmin of the
		// weighted price over ALL candidates. If it is grantable, it is
		// exactly the market the linear scan below would pick (every
		// earlier candidate scores strictly higher); if its score is not
		// under budget, nothing qualifies. Only a non-grantable argmin
		// (price spiked above its own bid) needs the full scan.
		i, price, weighted := s.envCur.AtIndex(s.eng.Now())
		if price <= s.mktBid[i] {
			if weighted < budget {
				return i, true
			}
			return 0, false
		}
	}
	best := 0
	bestScore := budget
	found := false
	for i := range s.cfg.Markets {
		price := s.spotPrice(i)
		if price > s.mktBid[i] {
			continue // not grantable now
		}
		n := s.mktServers[i]
		score := n * price
		if s.volatility != nil {
			score = forecast.Score(score, n*s.volatility[i].Std(s.eng.Now()), s.cfg.StabilityPenalty)
		}
		if score < bestScore {
			bestScore, best, found = score, i, true
		}
	}
	return best, found
}

// cheapestOnDemand returns the index of the candidate (region, type) with
// the lowest on-demand hourly cost for the service; the home market, at
// index home, is always a candidate.
func (s *Scheduler) cheapestOnDemand(home int) int {
	best := home
	bestCost := s.hourlyCost(best, cloud.OnDemand)
	for i := range s.cfg.Markets {
		if c := s.hourlyCost(i, cloud.OnDemand); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
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

// decisionSlack pads the migration lead time before a billing-hour
// boundary.
const decisionSlack sim.Duration = 30

// decisionLead estimates how long before a billing boundary the decision
// must run so a migration from region cur can complete by the boundary:
// worst-case destination startup plus worst-case migration duration plus
// slack. It reads only the config and cur.
func (s *Scheduler) decisionLead(cur market.Region) sim.Duration {
	// Startup: spot acquisitions are the slow case (~4 min).
	startup := 300.0
	// Migration duration: evaluate the planned timeline against the worst
	// candidate link.
	worst := 0.0
	for _, m := range s.cfg.Markets {
		var link *vm.WANLink
		if !market.SameRegionClass(cur, m.Region) {
			l := vm.Link(cur, m.Region)
			link = &l
		}
		tl := vm.PlannedTimeline(s.cfg.Service.VM, s.cfg.Mechanism, s.cfg.VMParams, link)
		if tl.Duration > worst {
			worst = tl.Duration
		}
	}
	return startup + worst + decisionSlack
}

// leadAt returns decisionLead from the region of market cands[i],
// computing it once per region: the first query fills the slot of every
// candidate in that region. A lead is at least the startup term, so 0
// marks an empty slot.
func (s *Scheduler) leadAt(i int) sim.Duration {
	if s.mktLead[i] == 0 {
		r := s.cands[i].Region
		lead := s.decisionLead(r)
		for j, m := range s.cands {
			if m.Region == r {
				s.mktLead[j] = lead
			}
		}
	}
	return s.mktLead[i]
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
	lead := s.leadAt(s.group.idx)
	at := boundary - lead
	for at <= now {
		boundary += sim.Hour
		at = boundary - lead
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
	curCost := s.hourlyCost(s.group.idx, curLC)

	odCost := s.odBestCost
	spotI, spotOK := s.bestSpotMarket(math.Inf(1))
	// Never move to the market we're already in.
	if spotOK && curLC == cloud.Spot && spotI == s.group.idx {
		spotOK = false
	}
	spotCost := math.Inf(1)
	if spotOK {
		spotCost = s.hourlyCost(spotI, cloud.Spot)
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
		s.beginPlannedMigration(spotI, cloud.Spot)
	case curLC == cloud.Spot && improve(odCost):
		// No cheaper spot market: on-demand is the better home.
		s.beginPlannedMigration(s.odBest, cloud.OnDemand)
	default:
		s.scheduleNextDecision()
	}
}

// beginPlannedMigration acquires the destination group in market cands[i]
// and, once it is ready, runs the voluntary migration timeline.
func (s *Scheduler) beginPlannedMigration(i int, lc cloud.Lifecycle) {
	g, err := s.acquireGroup(i, lc, s.plannedTargetReady, s.plannedTargetFailed)
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
		l := vm.Link(s.group.market.Region, g.market.Region)
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
			s.forcedImageDone = true // nothing to save; disk-only restart
			s.maybeRestore()
		})
	} else {
		s.eng.Post(deadline-tau, func() {
			s.markForcedDown(deadline, grace, false)
			s.tracer().Instant(trace.KindSuspend, "checkpoint", s.track, s.eng.Now())
			s.traceDown(downClass)
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
			s.tryReacquireSpot()
		})
		return
	}

	requestDest := func() {
		// Flee to on-demand servers of the dying group's market: the
		// checkpoint volume is region local.
		g, err := s.acquireGroup(s.group.idx, cloud.OnDemand,
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
	// The checkpoint volume is region local.
	g, err := s.acquireGroup(s.group.idx, cloud.OnDemand,
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
	downtime, degraded := s.restoreTimes(s.forcedMemLost)
	g := s.target
	s.restSpan = s.tracer().Begin(trace.KindRestore, "", s.track, now)
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
		s.startCheckpointing()
		s.scheduleNextDecision()
	})
}

// restoreTimes returns how long a restore keeps the service down and the
// degraded tail a lazy restore runs after it. Without the memory image
// (memLost) the service reboots from its disk instead.
func (s *Scheduler) restoreTimes(memLost bool) (downtime, degraded sim.Duration) {
	p := s.cfg.VMParams
	switch {
	case memLost:
		return vm.BootTime, 0
	case s.cfg.Mechanism.LazyRestore():
		return vm.LazyRestoreDowntime, p.FullRestoreTime(s.cfg.Service.VM)
	default:
		return p.FullRestoreTime(s.cfg.Service.VM), 0
	}
}

// --- pure-spot waiting -----------------------------------------------------

// tryReacquireSpot attempts to come back from the waiting state. Called on
// every price change of a candidate market (and at entry to the state).
func (s *Scheduler) tryReacquireSpot() {
	if s.phase != phaseWaiting {
		return
	}
	i, ok := s.bestSpotMarket(math.Inf(1))
	if !ok {
		return
	}
	g, err := s.acquireGroup(i, cloud.Spot, s.waitingReady, s.waitingFailed)
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
	if !s.started {
		// First launch: no restore needed, nothing was running before.
		s.bootReady(g)
		return
	}
	// Restore from the last checkpoint on the re-acquired spot server.
	now := s.eng.Now()
	downtime, degraded := s.restoreTimes(s.cfg.Mechanism == vm.Naive)
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
	s.ckptClock.foldThrough(now)
	if s.stopped {
		now = s.stoppedAt
	} else {
		s.setPlacement(s.curPlace) // close the open placement interval
	}

	cost := 0.0
	for _, id := range s.instances {
		cost += s.prov.Instance(id).Charged()
	}
	horizon := sim.Duration(0)
	if s.started {
		horizon = now - s.serviceStart
	}
	// Baseline: the same service on on-demand servers of the home type
	// for the same horizon.
	n := float64(s.cfg.ServersFor(s.cfg.Home.Type))
	hours := math.Ceil(float64(horizon) / sim.Hour)
	baseline := n * s.prov.OnDemandPrice(s.cfg.Home) * hours
	down := replayDownJournal(s.downJournal, s.cfg)

	return metrics.Report{
		Policy:          s.cfg.Bidding.String(),
		Mechanism:       s.cfg.Mechanism.String(),
		Horizon:         horizon,
		VMs:             s.cfg.Service.Count,
		Cost:            cost,
		BaselineCost:    baseline,
		SpotSeconds:     s.spotSeconds,
		OnDemandSeconds: s.odSeconds,
		DowntimeSeconds: float64(down.Total(now)),
		DegradedSeconds: float64(down.Degraded()),
		DownEpisodes:    down.Episodes(),
		LongestDowntime: down.Longest(),
		Migrations:      s.migrations,
		DowntimeLog:     down.Log(),
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
