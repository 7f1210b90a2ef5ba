package sched

import (
	"math"
	"slices"

	"spothost/internal/cloud"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// Background checkpointing. While the service sits on revocable servers
// a Yank-style daemon writes its dirtied memory to the network volume;
// the daemon is what guarantees the forced-migration save bound the
// timeline models assume. On-demand placements do not checkpoint (they
// cannot be revoked), and the naive strawman never does.
//
// The daemon posts no engine events. Its writes depend only on when its
// run epoch began, so each open epoch is a vm.Daemon fold that the
// engine's ckptClock steps when someone needs the writes: at every epoch
// start or stop on the engine, at the end of a run, and in Report.

// ckptClock folds the open daemon epochs of every scheduler sharing one
// engine — one scheduler's, or a whole portfolio's — in the order the
// engine would fire their writes as events: by time, then by posting
// order, for which a counter stands in for the engine's sequence number
// (each write event is posted when its predecessor fires, or when its
// epoch starts). That order is what the shared recorder's
// checkpoint-duration histogram sums in.
type ckptClock struct {
	open   []*Scheduler // schedulers with an open epoch
	posted uint64
}

// fold fires, in engine order, every open epoch's events strictly before
// cutoff: an epoch that starts or stops at an instant sees the writes
// that complete before it.
//
// It fires the engine's next event, then lets that epoch run on through
// vm.Daemon.Fold up to the earliest pending event of any other open epoch
// or the cutoff. Each event the engine would fire posts its successor, so
// the running epoch holds the newest posting number throughout: it wins
// no tie, and its events strictly before the others' heads are exactly
// the ones the engine fires next.
func (c *ckptClock) fold(cutoff sim.Time) {
	for {
		var next *Scheduler
		var nextAt sim.Time
		for _, s := range c.open {
			at, ok := s.ckpt.Next()
			if ok && at < cutoff && (next == nil || at < nextAt || at == nextAt && s.ckptSeq < next.ckptSeq) {
				next, nextAt = s, at
			}
		}
		if next == nil {
			return
		}
		until := cutoff
		for _, s := range c.open {
			if at, ok := s.ckpt.Next(); ok && s != next && at < until {
				until = at
			}
		}
		next.foldCheckpoints(until)
		next.ckptSeq = c.post()
	}
}

// foldThrough folds every event at or before t, as RunUntil(t) fires
// them.
func (c *ckptClock) foldThrough(t sim.Time) { c.fold(math.Nextafter(t, math.Inf(1))) }

// post returns the next posting number.
func (c *ckptClock) post() uint64 {
	c.posted++
	return c.posted
}

// startCheckpointing opens a daemon epoch at now if the service is on spot
// servers under a checkpointing mechanism.
func (s *Scheduler) startCheckpointing() {
	s.stopCheckpointing()
	if s.cfg.Mechanism == vm.Naive || s.group == nil || s.group.lifecycle != cloud.Spot {
		return
	}
	now := s.eng.Now()
	s.ckptClock.fold(now)
	s.openEpoch(vm.NewDaemon(s.cfg.Service.VM, s.cfg.VMParams, now), now)
}

// openEpoch registers d, started at start, as this scheduler's open daemon
// epoch.
func (s *Scheduler) openEpoch(d *vm.Daemon, start sim.Time) {
	s.ckpt = d
	s.ckptStart = start
	s.ckptSeq = s.ckptClock.post()
	s.ckptClock.open = append(s.ckptClock.open, s)
}

// stopCheckpointing closes the open daemon epoch, if any, keeping the
// writes that completed before now.
func (s *Scheduler) stopCheckpointing() {
	if s.ckpt == nil {
		return
	}
	now := s.eng.Now()
	s.ckptClock.fold(now)
	s.ckptClock.open = slices.DeleteFunc(s.ckptClock.open, func(o *Scheduler) bool { return o == s })
	s.ckpt = nil
	s.daemonEpochs = append(s.daemonEpochs, daemonEpoch{start: s.ckptStart, stop: now})
}

// foldCheckpoints fires the open epoch's pending event, then every later
// one strictly before until, charging each write to the run's I/O
// accounting and, when a recorder is attached, to its checkpoint-duration
// histogram.
func (s *Scheduler) foldCheckpoints(until sim.Time) {
	count := float64(s.cfg.Service.Count)
	var observe func(mb float64)
	if rec := s.tracer(); rec != nil {
		w := s.cfg.VMParams.CheckpointWriteMBps
		observe = func(mb float64) { rec.ObserveCheckpoint(mb / w) }
	}
	if mb, wrote := s.ckpt.Step(); wrote {
		s.ckptWrittenMB += mb * count
		if observe != nil {
			observe(mb)
		}
	}
	s.ckptWrittenMB = s.ckpt.Fold(until, s.ckptWrittenMB, count, observe)
}
