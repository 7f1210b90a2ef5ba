package vm

import (
	"fmt"

	"spothost/internal/sim"
)

// CheckpointDaemon is the event-driven Yank-style background checkpointer.
// It periodically writes the memory dirtied since the previous checkpoint
// to the network volume, pacing itself so that at any instant the
// not-yet-persisted ("exposed") state can be written out within the
// configured bound — which is what lets a forced migration always complete
// its final save inside the revocation grace window.
//
// The analytic models in timeline.go assume this daemon exists; the daemon
// makes the assumption checkable: tests drive it through simulated time
// and verify the exposure bound and the I/O it consumes.
type CheckpointDaemon struct {
	eng  *sim.Engine
	spec Spec
	p    Params

	running   bool
	stopped   bool
	lastStart sim.Time // when the current interval began accumulating
	writing   bool

	fullCheckpoints int
	incrementals    int
	bytesWrittenMB  float64

	onWrite func(mb float64) // optional observer for I/O accounting

	// Persistent closures for the steady-state incremental cycle, allocated
	// once at construction so the periodic tick posts nothing new.
	incrFn     func()  // arms writeIncrement
	incrDoneFn func()  // completes the in-flight incremental write
	fullDoneFn func()  // completes the initial full checkpoint
	pendingMB  float64 // size of the in-flight incremental write
}

// NewCheckpointDaemon creates a daemon for one VM. Call Start to begin the
// initial full checkpoint.
func NewCheckpointDaemon(eng *sim.Engine, spec Spec, p Params) (*CheckpointDaemon, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p.CheckpointBound <= 0 {
		return nil, fmt.Errorf("vm: checkpoint bound must be positive, got %v", p.CheckpointBound)
	}
	d := &CheckpointDaemon{eng: eng, spec: spec, p: p}
	d.incrFn = d.writeIncrement
	d.incrDoneFn = func() {
		if d.stopped {
			return
		}
		d.writing = false
		d.incrementals++
		d.record(d.pendingMB)
		d.scheduleNext()
	}
	d.fullDoneFn = func() {
		if d.stopped {
			return
		}
		d.writing = false
		d.fullCheckpoints++
		d.record(d.spec.MemoryMB())
		// Pages dirtied during the full write are the first increment's
		// backlog; the accumulation clock restarted at lastStart.
		d.scheduleNext()
	}
	return d, nil
}

// OnWrite registers an observer invoked with the size (MB) of every
// checkpoint write the daemon issues; use it to charge volume I/O.
func (d *CheckpointDaemon) OnWrite(fn func(mb float64)) { d.onWrite = fn }

// Start writes the initial full checkpoint and then begins the periodic
// incremental cycle. Starting an already-started or stopped daemon is an
// error.
func (d *CheckpointDaemon) Start() error {
	if d.running {
		return fmt.Errorf("vm: checkpoint daemon already running")
	}
	if d.stopped {
		return fmt.Errorf("vm: checkpoint daemon already stopped")
	}
	d.running = true
	d.writing = true
	d.lastStart = d.eng.Now()
	d.eng.PostAfter(d.spec.MemoryMB()/d.p.CheckpointWriteMBps, d.fullDoneFn)
	return nil
}

// scheduleNext arms the next incremental write at the Yank interval.
func (d *CheckpointDaemon) scheduleNext() {
	interval := d.p.CheckpointInterval(d.spec)
	if interval <= 0 {
		// Nothing dirties memory: no periodic work (Exposure stays 0).
		return
	}
	target := d.lastStart + interval
	now := d.eng.Now()
	if target <= now {
		target = now
	}
	d.eng.Post(target, d.incrFn)
}

// writeIncrement persists everything dirtied since lastStart.
func (d *CheckpointDaemon) writeIncrement() {
	if d.stopped || !d.running {
		return
	}
	now := d.eng.Now()
	dirtyMB := d.spec.DirtyRateMBps * (now - d.lastStart)
	if max := d.spec.MemoryMB(); dirtyMB > max {
		dirtyMB = max
	}
	d.writing = true
	d.lastStart = now // pages dirtied from now on belong to the next increment
	d.pendingMB = dirtyMB
	d.eng.PostAfter(dirtyMB/d.p.CheckpointWriteMBps, d.incrDoneFn)
}

// record accounts one completed write.
func (d *CheckpointDaemon) record(mb float64) {
	d.bytesWrittenMB += mb
	// The write occupied the volume for mb/rate seconds; feed the run's
	// checkpoint-duration histogram (no-op without a recorder attached).
	d.eng.Recorder().ObserveCheckpoint(mb / d.p.CheckpointWriteMBps)
	if d.onWrite != nil {
		d.onWrite(mb)
	}
}

// ExposureMB returns the amount of memory state that would be lost if the
// VM vanished right now without a final save: everything dirtied since the
// start of the last completed-or-in-flight checkpoint interval.
func (d *CheckpointDaemon) ExposureMB() float64 {
	if !d.running || d.stopped {
		return d.spec.MemoryMB()
	}
	mb := d.spec.DirtyRateMBps * (d.eng.Now() - d.lastStart)
	if max := d.spec.MemoryMB(); mb > max {
		mb = max
	}
	return mb
}

// FinalSaveTime returns how long a final incremental save would take if
// initiated now — the quantity the Yank bound promises stays within
// CheckpointBound (plus one in-flight write that must drain first).
func (d *CheckpointDaemon) FinalSaveTime() sim.Duration {
	t := d.ExposureMB() / d.p.CheckpointWriteMBps
	if d.writing {
		// An in-flight write occupies the volume; the worst case is one
		// full bound's worth of backlog ahead of the final save.
		t += float64(d.p.CheckpointBound)
	}
	return t
}

// Stop halts the daemon (the VM suspended or migrated away). Idempotent.
func (d *CheckpointDaemon) Stop() {
	d.stopped = true
	d.running = false
}

// Stats reports the daemon's activity.
type DaemonStats struct {
	FullCheckpoints int
	Incrementals    int
	BytesWrittenMB  float64
}

// Stats returns a snapshot of the daemon's activity counters.
func (d *CheckpointDaemon) Stats() DaemonStats {
	return DaemonStats{
		FullCheckpoints: d.fullCheckpoints,
		Incrementals:    d.incrementals,
		BytesWrittenMB:  d.bytesWrittenMB,
	}
}
