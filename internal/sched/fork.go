// Forkable engine state: quiescent checkpoints and mid-horizon resume.
//
// A running simulation cannot be copied directly — the event heap holds
// closures. But at a *quiescent* instant (service steady, no migration in
// flight, no allocation pending, no revocation mid-grace) every pending
// event is a deterministic function of model state:
//
//   - per-market price events: the cursor's NextChangeAfter(now),
//   - per-instance billing hours: lastHourAt + 1h,
//   - the checkpoint daemon's next write: its write clocks (vm.DaemonState),
//   - the next placement decision: recomputable via scheduleNextDecision
//     (the first hour boundary B with B - lead > now is the same whether
//     the predicate is evaluated now or when the event was armed, because
//     every earlier boundary already failed it),
//
// so a checkpoint is a deep copy of the model state plus a re-arm on a
// fresh engine. Two states are deliberately *replayed* rather than copied,
// so that a fork whose CheckpointBound (tau) differs from its pilot's still
// restores bit-exactly: the downtime tracker (rebuilt from a journal of
// tracker operations — a forced suspend lands at deadline - tau, which
// moves with tau even though the trajectory does not) and the cumulative
// checkpoint I/O (rebuilt by replaying the daemon's write schedule over its
// recorded run epochs in chronological order, reproducing the identical
// float-add sequence a cold run performs).
package sched

import (
	"context"
	"fmt"

	"spothost/internal/cloud"
	"spothost/internal/forecast"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// downOpKind classifies downtime-journal entries.
type downOpKind int

const (
	opDown       downOpKind = iota // plain MarkDown at t
	opForcedDown                   // forced-migration suspend; time depends on tau
	opUp                           // MarkUp at t
	opDegraded                     // AddDegraded(amount)
)

// downOp is one replayable downtime-tracker operation. For opForcedDown, t
// is the revocation deadline: a replaying fork computes its own suspend
// instant (deadline for a memory-losing migration, deadline - tau
// otherwise) from its own CheckpointBound.
type downOp struct {
	kind    downOpKind
	t       sim.Time
	grace   sim.Duration // opForcedDown: the warning's grace window
	memLost bool         // opForcedDown: the pilot's memory-loss outcome
	amount  sim.Duration // opDegraded
}

// daemonEpoch is one interval during which the checkpoint daemon ran.
// stop < 0 marks the epoch still open.
type daemonEpoch struct {
	start sim.Time
	stop  sim.Time
}

// ForcedWarning records one revocation warning the pilot received; the
// sweep planner scans these to find the first instant where a sibling's
// memory-loss outcome would differ from the pilot's.
type ForcedWarning struct {
	At    sim.Time
	Grace sim.Duration
}

// markDown applies and journals a plain downtime start.
func (s *Scheduler) markDown(t sim.Time) {
	s.downJournal = append(s.downJournal, downOp{kind: opDown, t: t})
	s.down.MarkDown(t)
}

// markUp applies and journals a downtime end.
func (s *Scheduler) markUp(t sim.Time) {
	s.downJournal = append(s.downJournal, downOp{kind: opUp, t: t})
	s.down.MarkUp(t)
}

// addDegraded applies and journals degraded-service time.
func (s *Scheduler) addDegraded(d sim.Duration) {
	s.downJournal = append(s.downJournal, downOp{kind: opDegraded, amount: d})
	s.down.AddDegraded(d)
}

// markForcedDown applies the forced-migration suspend (the caller runs at
// the correct instant) and journals it with enough context for a fork with
// a different tau to recompute its own suspend time.
func (s *Scheduler) markForcedDown(deadline sim.Time, grace sim.Duration, memLost bool) {
	s.downJournal = append(s.downJournal, downOp{
		kind: opForcedDown, t: deadline, grace: grace, memLost: memLost,
	})
	s.down.MarkDown(s.eng.Now())
}

// replayDownJournal rebuilds a downtime tracker under cfg's parameters.
// The ops are applied in their original chronological order with the same
// float arithmetic a cold run of cfg performs, so the resulting tracker is
// bit-identical to that run's. It errors if a forced migration's
// memory-loss outcome flips under cfg's tau — the trajectory itself would
// have diverged there, so the checkpoint is not valid for this sibling
// (the sweep planner's divergence scan prevents this; the check is
// defense in depth).
func replayDownJournal(ops []downOp, cfg Config) (metrics.DowntimeTracker, error) {
	var d metrics.DowntimeTracker
	tau := float64(cfg.VMParams.CheckpointBound)
	naive := cfg.Mechanism == vm.Naive
	for _, op := range ops {
		switch op.kind {
		case opDown:
			d.MarkDown(op.t)
		case opUp:
			d.MarkUp(op.t)
		case opDegraded:
			d.AddDegraded(op.amount)
		case opForcedDown:
			memLost := naive || op.grace < tau
			if memLost != op.memLost {
				return d, fmt.Errorf("sched: forced migration at t=%v flips memory-loss under tau=%v", op.t, tau)
			}
			if memLost {
				d.MarkDown(op.t)
			} else {
				d.MarkDown(op.t - tau)
			}
		}
	}
	return d, nil
}

// Checkpoint is a deep copy of a scheduler run's model state at a
// quiescent instant, sufficient to resume the run — or a sibling
// configuration that has not yet diverged from it — on a fresh engine.
type Checkpoint struct {
	at   sim.Time
	prov *cloud.Snapshot

	groupMarket market.ID
	groupLC     cloud.Lifecycle
	groupInsts  []cloud.InstanceID
	instances   []cloud.InstanceID

	curPlace       placement
	lastPlaceT     sim.Time
	spotSeconds    float64
	odSeconds      float64
	serviceStart   sim.Time
	bootFallbackOD bool
	migrations     metrics.MigrationCounts
	events         []Event
	downJournal    []downOp
	daemonEpochs   []daemonEpoch
	volatility     map[market.ID]forecast.DecayingMoments
}

// At returns the simulation time the checkpoint was taken.
func (ck *Checkpoint) At() sim.Time { return ck.at }

// checkpoint captures the run's state if it is quiescent. The scheduler
// must be in steady state with no transients (migration timers, pending
// allocations, open downtime) and no recorder/obs attached (their stream
// positions are not checkpointable); the provider must agree.
func (s *Scheduler) checkpoint() (*Checkpoint, bool) {
	if !s.started || s.stopped || s.phase != phaseSteady ||
		s.group == nil || !s.group.ready || s.target != nil ||
		len(s.pendingTimers) != 0 || s.down.Down() ||
		s.cfg.Bidding == PureSpot {
		return nil, false
	}
	if s.eng.Recorder() != nil || s.eng.Obs() != nil {
		return nil, false
	}
	ps, ok := s.prov.Snapshot()
	if !ok {
		return nil, false
	}
	ck := &Checkpoint{
		at:             s.eng.Now(),
		prov:           ps,
		groupMarket:    s.group.market,
		groupLC:        s.group.lifecycle,
		curPlace:       s.curPlace,
		lastPlaceT:     s.lastPlaceT,
		spotSeconds:    s.spotSeconds,
		odSeconds:      s.odSeconds,
		serviceStart:   s.serviceStart,
		bootFallbackOD: s.bootFallbackOD,
		migrations:     s.migrations,
		events:         append([]Event(nil), s.events...),
		downJournal:    append([]downOp(nil), s.downJournal...),
		daemonEpochs:   append([]daemonEpoch(nil), s.daemonEpochs...),
	}
	ck.groupInsts = make([]cloud.InstanceID, len(s.group.insts))
	for i, in := range s.group.insts {
		ck.groupInsts[i] = in.ID()
	}
	ck.instances = make([]cloud.InstanceID, len(s.instances))
	for i, in := range s.instances {
		ck.instances[i] = in.ID()
	}
	if s.volatility != nil {
		ck.volatility = make(map[market.ID]forecast.DecayingMoments, len(s.volatility))
		for m, dm := range s.volatility {
			ck.volatility[m] = *dm
		}
	}
	return ck, true
}

// Resume rebuilds a scheduler from a checkpoint on a provider restored at
// the checkpoint instant. cfg may differ from the pilot's configuration in
// knobs certified not to have changed the trajectory before the
// checkpoint: the spot bid (inherited instances are re-bid), the
// hysteresis threshold (read only at decisions), or the checkpoint bound
// (for live-migration mechanisms, read only at forced warnings — the
// journal replays shift its metric effects to cfg's tau).
func Resume(prov *cloud.Provider, cfg Config, ck *Checkpoint) (*Scheduler, error) {
	s, err := New(prov, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Bidding == PureSpot {
		return nil, fmt.Errorf("sched: pure-spot runs are not forkable")
	}
	down, err := replayDownJournal(ck.downJournal, cfg)
	if err != nil {
		return nil, err
	}
	s.down = down
	s.phase = phaseSteady
	s.started = true
	s.serviceStart = ck.serviceStart
	s.curPlace = ck.curPlace
	s.lastPlaceT = ck.lastPlaceT
	s.spotSeconds = ck.spotSeconds
	s.odSeconds = ck.odSeconds
	s.bootFallbackOD = ck.bootFallbackOD
	s.migrations = ck.migrations
	s.events = append([]Event(nil), ck.events...)
	s.downJournal = append([]downOp(nil), ck.downJournal...)
	s.daemonEpochs = append([]daemonEpoch(nil), ck.daemonEpochs...)

	for _, id := range ck.instances {
		in := prov.Instance(id)
		if in == nil {
			return nil, fmt.Errorf("sched: checkpoint instance %d missing from restored provider", id)
		}
		s.instances = append(s.instances, in)
	}

	g := &serverGroup{market: ck.groupMarket, lifecycle: ck.groupLC, ready: true}
	cb := s.groupCallbacks(g)
	for _, id := range ck.groupInsts {
		in := prov.Instance(id)
		if in == nil || !in.Alive() {
			return nil, fmt.Errorf("sched: checkpoint group member %d not alive in restored provider", id)
		}
		g.insts = append(g.insts, in)
		prov.AttachCallbacks(in, cb)
	}
	g.readyCount = len(g.insts)
	if g.lifecycle == cloud.Spot {
		g.bid = s.bidFor(g.market)
		for _, in := range g.insts {
			if err := prov.Rebid(in, g.bid); err != nil {
				return nil, err
			}
		}
	}
	s.group = g

	s.initEnvelope()
	if cfg.StabilityPenalty > 0 {
		s.volatility = map[market.ID]*forecast.DecayingMoments{}
		for _, m := range cfg.Markets {
			mv, ok := ck.volatility[m]
			if !ok {
				return nil, fmt.Errorf("sched: checkpoint has no volatility state for %s", m)
			}
			dm := mv
			s.volatility[m] = &dm
			s.prov.SubscribePrice(m, func(t sim.Time, price float64) {
				dm.Observe(t, price)
			})
		}
	}

	if err := s.resumeDaemon(ck); err != nil {
		return nil, err
	}
	s.scheduleNextDecision()
	return s, nil
}

// resumeDaemon rebuilds the checkpoint daemon and the cumulative
// checkpoint-I/O accumulator by replaying the daemon's write schedule over
// every recorded epoch under cfg's parameters, in chronological order —
// the identical sequence of float additions a cold run performs — and
// re-arming the still-open epoch's daemon on the fresh engine.
func (s *Scheduler) resumeDaemon(ck *Checkpoint) error {
	spec, p := s.cfg.Service.VM, s.cfg.VMParams
	count := float64(s.cfg.Service.Count)
	onWrite := func(mb float64) { s.ckptWrittenMB += mb * count }
	for i, ep := range ck.daemonEpochs {
		cutoff := ep.stop
		open := cutoff < 0
		if open {
			if i != len(ck.daemonEpochs)-1 {
				return fmt.Errorf("sched: checkpoint has a non-final open daemon epoch")
			}
			cutoff = ck.at
		}
		st := vm.ReplayDaemon(spec, p, ep.start, cutoff, onWrite)
		if open {
			d, err := vm.RestoreCheckpointDaemon(s.eng, spec, p, st)
			if err != nil {
				return err
			}
			d.OnWrite(onWrite)
			s.ckptDaemon = d
		}
	}
	return nil
}

// ForkLog is what a pilot run hands the sweep planner: the checkpoints it
// captured and the per-run facts the divergence scans need.
type ForkLog struct {
	// Checkpoints in capture order (strictly increasing At).
	Checkpoints []*Checkpoint
	// ForcedWarnings the run received, in order.
	ForcedWarnings []ForcedWarning
	// DaemonRan reports whether the checkpoint daemon ever ran: if it did,
	// runs with different checkpoint bounds differ in checkpoint I/O even
	// when their trajectories are identical, so they may fork but not
	// share outright.
	DaemonRan bool
}

// LastCheckpointAtOrBefore returns the latest checkpoint with At <= t, or
// nil if none qualifies.
func (l *ForkLog) LastCheckpointAtOrBefore(t sim.Time) *Checkpoint {
	var best *Checkpoint
	for _, ck := range l.Checkpoints {
		if ck.at <= t {
			best = ck
		}
	}
	return best
}

// RunWithCheckpointsCtx runs one scheduler simulation to the horizon like
// RunCtx, capturing a quiescent checkpoint at every multiple of `every`
// where the run's state permits one. The capture is read-only: the run's
// own trajectory and report are byte-identical to RunCtx's (the ticker
// only advances event sequence numbers, which preserves ordering).
func RunWithCheckpointsCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params, cfg Config, horizon sim.Duration, every sim.Duration) (metrics.Report, *ForkLog, error) {
	eng, s, horizon, err := build(set, cloudParams, cfg, horizon, nil)
	if err != nil {
		return metrics.Report{}, nil, err
	}
	log := &ForkLog{}
	if every > 0 {
		eng.Ticker(every, every, func(sim.Time) {
			if ck, ok := s.checkpoint(); ok {
				log.Checkpoints = append(log.Checkpoints, ck)
			}
		})
	}
	s.Start()
	if err := eng.RunUntilCtx(ctx, horizon); err != nil {
		return metrics.Report{}, nil, err
	}
	log.ForcedWarnings = append([]ForcedWarning(nil), s.forcedWarns...)
	log.DaemonRan = len(s.daemonEpochs) > 0
	return s.Report(), log, nil
}

// RunForkedCtx runs configuration cfg from a pilot's checkpoint to the
// horizon, simulating only [ck.At(), horizon]. Provided the checkpoint
// precedes the first divergence point between cfg and the pilot's
// configuration, the report is byte-identical to a cold RunCtx of cfg.
func RunForkedCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params, cfg Config, horizon sim.Duration, ck *Checkpoint) (metrics.Report, error) {
	horizon = set.ClampHorizon(horizon)
	if ck.at > horizon {
		return metrics.Report{}, fmt.Errorf("sched: checkpoint at t=%v is past the horizon %v", ck.at, horizon)
	}
	eng := sim.NewEngineAt(ck.at)
	prov, err := cloud.RestoreProvider(eng, set, cloudParams, ck.prov)
	if err != nil {
		return metrics.Report{}, err
	}
	s, err := Resume(prov, cfg, ck)
	if err != nil {
		return metrics.Report{}, err
	}
	if err := eng.RunUntilCtx(ctx, horizon); err != nil {
		return metrics.Report{}, err
	}
	return s.Report(), nil
}
