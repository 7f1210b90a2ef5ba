package vm

import "spothost/internal/sim"

// Timeline summarizes one migration's timing, all relative to its start.
type Timeline struct {
	// Duration is total wall time from migration start until the VM is
	// fully operational on the destination (background page fault-in
	// excluded).
	Duration sim.Duration
	// Downtime is the span during which the service is unavailable.
	Downtime sim.Duration
	// Degraded is the post-resume span during which the VM runs slower
	// because lazy restore is still faulting memory in from disk.
	Degraded sim.Duration
	// Rounds is the number of pre-copy rounds (live migrations only).
	Rounds int
	// MemoryLost reports that memory state could not be preserved and the
	// VM rebooted from disk (naive restarts).
	MemoryLost bool
}

// LiveMigrationTimeline models iterative pre-copy live migration: the full
// memory image is copied while the VM runs, then rounds of
// dirtied-since-last-round pages, until the residue fits in the
// stop-and-copy budget or the round limit is hit. Downtime is the final
// residue transfer plus the fixed switch-over cost.
func LiveMigrationTimeline(s Spec, bwMBps float64, p Params) Timeline {
	mem := s.MemoryMB()
	if bwMBps <= 0 {
		// No bandwidth: degenerate to a stop-and-copy of everything at
		// checkpoint speed (callers should not do this; modelled for
		// safety).
		d := mem / p.CheckpointWriteMBps
		return Timeline{Duration: d, Downtime: d, Rounds: 1}
	}
	budget := bwMBps * float64(p.LiveStopCopy) // residue we stop at, MB
	remaining := mem
	var elapsed sim.Duration
	rounds := 0
	for remaining > budget && rounds < p.LiveMaxRounds {
		t := remaining / bwMBps
		elapsed += t
		rounds++
		dirtied := s.DirtyRateMBps * t
		if dirtied > mem {
			dirtied = mem
		}
		remaining = dirtied
		if s.DirtyRateMBps >= bwMBps {
			// Non-convergent: further rounds cannot shrink the residue.
			break
		}
	}
	down := remaining/bwMBps + float64(p.LiveStopCopy)
	return Timeline{
		Duration: elapsed + down,
		Downtime: down,
		Rounds:   rounds + 1,
	}
}

// restore returns (downtime, degraded) of bringing a checkpoint image back
// to life on a booted destination.
func restore(s Spec, m Mechanism, p Params) (sim.Duration, sim.Duration) {
	if m.LazyRestore() {
		// Resume after a constant-size read; the rest faults in while the
		// VM runs (degraded).
		return p.LazyRestoreDowntime, p.FullRestoreTime(s)
	}
	return p.FullRestoreTime(s), 0
}

// PlannedTimeline models a voluntary (planned or reverse) migration. The
// destination server is already running when the migration starts, so the
// only downtime is the mechanism's hand-off:
//
//   - live: pre-copy rounds while the VM runs; downtime = stop-and-copy.
//   - checkpoint: a full background checkpoint streams while the VM runs,
//     then the VM suspends, the bounded increment is written, and the VM
//     restores on the destination (eagerly or lazily).
//
// Cross-region migrations additionally copy disk state up front (the
// network volume cannot follow the VM); the copy overlaps execution and
// extends Duration but not Downtime.
func PlannedTimeline(s Spec, m Mechanism, p Params, link *WANLink) Timeline {
	var tl Timeline
	switch {
	case m == Naive:
		// Shut down, reboot from disk on the destination.
		tl = Timeline{
			Duration:   p.BootTime,
			Downtime:   p.BootTime,
			MemoryLost: true,
		}
	case m.UsesLive():
		bw := p.LiveBandwidthMBps
		if link != nil {
			bw = link.LiveBandwidthMBps
		}
		tl = LiveMigrationTimeline(s, bw, p)
	default:
		down, degraded := restore(s, m, p)
		if m.LazyRestore() {
			// Voluntary migrations give the destination time to pre-load
			// the base image while the source runs; lazy resume then only
			// reads the final increment, and the degraded fault-in window
			// shrinks to that increment.
			down = p.PreStagedLazyResume
			degraded = float64(p.CheckpointBound) * p.CheckpointWriteMBps / p.RestoreReadMBps
		}
		save := float64(p.CheckpointBound)
		tl = Timeline{
			Duration: p.FullCheckpointTime(s) + save + down,
			Downtime: save + down,
			Degraded: degraded,
		}
		if link != nil {
			// The checkpoint image must cross the WAN before restore; the
			// increment hand-off crosses it too (second bound's worth).
			xfer := s.MemoryMB() / link.DiskCopyMBps
			tl.Duration += xfer
			tl.Downtime += save
		}
	}
	if link != nil {
		// Disk state precedes the VM across regions, concurrent with
		// execution.
		tl.Duration += s.DiskGB * 1024 / link.DiskCopyMBps
	}
	return tl
}
