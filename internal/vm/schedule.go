package vm

import (
	"math"

	"spothost/internal/sim"
)

// daemonEvent names the one event a checkpoint daemon ever has pending.
type daemonEvent int

const (
	// daemonIdle: nothing is pending (a zero dirty rate left nothing to
	// checkpoint after the initial full write).
	daemonIdle daemonEvent = iota
	// daemonFullDone completes the initial full checkpoint.
	daemonFullDone
	// daemonIncrStart begins the next incremental write.
	daemonIncrStart
	// daemonIncrDone completes the in-flight incremental write.
	daemonIncrDone
)

// Daemon is the Yank-style background checkpointer. It periodically
// writes the memory dirtied since the previous checkpoint to the network
// volume, pacing itself so that at any instant the not-yet-persisted
// ("exposed") state can be written out within CheckpointBound — which is
// what lets a forced migration always complete its final save inside the
// revocation grace window.
//
// Its write schedule depends only on the VM, the parameters and the
// instant it started, so it never runs as engine events: a Daemon is that
// schedule as a fold, stepped event by event up to whatever instant its
// owner needs (a stop, a fork point, the horizon). Its one pending event
// is a function of its write clocks.
type Daemon struct {
	spec     Spec
	p        Params
	interval sim.Duration

	lastStart sim.Time // when the current interval began accumulating
	pendingMB float64  // size of the in-flight incremental write
	next      daemonEvent
	nextAt    sim.Time
}

// NewDaemon starts a daemon at start with the initial full checkpoint.
// spec and p must be valid, with a positive CheckpointBound.
func NewDaemon(spec Spec, p Params, start sim.Time) *Daemon {
	return &Daemon{
		spec:      spec,
		p:         p,
		interval:  p.CheckpointInterval(spec),
		lastStart: start,
		next:      daemonFullDone,
		nextAt:    start + spec.MemoryMB()/p.CheckpointWriteMBps,
	}
}

// Next returns the time of the pending event; ok is false when nothing is
// pending.
func (d *Daemon) Next() (at sim.Time, ok bool) { return d.nextAt, d.next != daemonIdle }

// Step fires the pending event and returns the size (MB) of the write it
// completed, if it completed one.
func (d *Daemon) Step() (mb float64, wrote bool) {
	now := d.nextAt
	switch d.next {
	case daemonFullDone:
		// Pages dirtied during the full write are the first increment's
		// backlog: the accumulation clock started with the write.
		mb = d.spec.MemoryMB()
	case daemonIncrStart:
		// Persist everything dirtied since lastStart; pages dirtied from
		// now on belong to the next increment.
		dirty := d.spec.DirtyRateMBps * (now - d.lastStart)
		if max := d.spec.MemoryMB(); dirty > max {
			dirty = max
		}
		d.lastStart = now
		d.pendingMB = dirty
		d.next = daemonIncrDone
		d.nextAt = now + dirty/d.p.CheckpointWriteMBps
		return 0, false
	case daemonIncrDone:
		mb = d.pendingMB
	default:
		return 0, false
	}
	// Arm the next increment at the Yank interval, at once if the write
	// outran it. Nothing dirties an idle VM's memory: no periodic work.
	if d.interval <= 0 {
		d.next = daemonIdle
		return mb, true
	}
	d.next = daemonIncrStart
	d.nextAt = d.lastStart + d.interval
	if d.nextAt <= now {
		d.nextAt = now
	}
	return mb, true
}

// Fold fires every pending event strictly before cutoff and returns acc
// plus scale times the size (MB) of each write it completed, added one
// write at a time in completion order. A non-nil onWrite also sees each
// write's size, in the same order.
//
// Once the full write is done the schedule is a chain of increments, and
// Fold runs it in one loop over local write clocks: each iteration starts
// an increment and completes it with the float operations Step performs,
// in the same order, so the writes, the sum and the state left at cutoff
// are Step's bit for bit. Without an observer, Fold also jumps over runs
// of identical increments in one step each (see leap), landing on the
// same bits; a month of increments then costs a few dozen jumps.
func (d *Daemon) Fold(cutoff sim.Time, acc, scale float64, onWrite func(mb float64)) float64 {
	for d.next != daemonIdle && d.next != daemonIncrStart && d.nextAt < cutoff {
		if mb, wrote := d.Step(); wrote {
			acc += mb * scale
			if onWrite != nil {
				onWrite(mb)
			}
		}
	}
	if d.next != daemonIncrStart {
		return acc
	}
	rate, memMB := d.spec.DirtyRateMBps, d.spec.MemoryMB()
	w, interval := d.p.CheckpointWriteMBps, d.interval
	lastStart, pendingMB, at := d.lastStart, d.pendingMB, d.nextAt
	for at < cutoff {
		if onWrite == nil {
			if step := (at + interval) - at; at-lastStart == step {
				if n, dirty, gain := d.leap(at, step, acc, cutoff, scale); n > 0 {
					at += n * step
					lastStart, pendingMB = at-step, dirty
					acc += n * gain
					continue
				}
			}
		}
		dirty := rate * (at - lastStart)
		if dirty > memMB {
			dirty = memMB
		}
		lastStart, pendingMB = at, dirty
		done := at + dirty/w
		if done >= cutoff {
			d.lastStart, d.pendingMB, d.next, d.nextAt = lastStart, pendingMB, daemonIncrDone, done
			return acc
		}
		acc += dirty * scale
		if onWrite != nil {
			onWrite(dirty)
		}
		at = lastStart + interval
		if at <= done {
			at = done
		}
	}
	d.lastStart, d.pendingMB, d.nextAt = lastStart, pendingMB, at
	return acc
}

// leap returns how many increments n Fold can take in one jump from an
// increment starting at at, step after the previous start, with acc
// summed so far: each of them writes dirty MB and adds gain to acc. n is
// 0 when no such jump is exact.
//
// Within one binade of at, where floats are u apart, at + interval rounds
// to at + step for every at unless interval - step is a tie (±u/2). So
// each increment dirties the same MB, and when its write time is under
// step - 2u it completes before the next start, which is never clamped.
// Likewise, within one binade of acc (spacing v), acc + dirty*scale
// rounds to acc + gain unless that is a tie. n keeps both one step short
// of the top of their binade and the last start at or before cutoff, so
// every write it skips completes before cutoff, and at + n*step and
// acc + n*gain are integer multiples of u and v below 2^53: exact.
func (d *Daemon) leap(at, step, acc, cutoff, scale float64) (n, dirty, gain float64) {
	const top = 1 << 53
	u, v := spacing(at), spacing(acc)
	if u == 0 || v == 0 || !(scale >= 0) || !(step < u*top) {
		return 0, 0, 0
	}
	if r := d.interval - step; r == u/2 || r == -u/2 {
		return 0, 0, 0
	}
	dirty = d.spec.DirtyRateMBps * step
	if max := d.spec.MemoryMB(); dirty > max {
		dirty = max
	}
	if !(dirty/d.p.CheckpointWriteMBps < step-2*u) {
		return 0, 0, 0
	}
	x := float64(dirty * scale)
	gain = (acc + x) - acc
	if r := x - gain; !(gain/v < top) || r == v/2 || r == -v/2 {
		return 0, 0, 0
	}
	// Go may fuse acc += dirty*scale into one rounding; that must give
	// the same gain, with no tie either.
	if r := math.FMA(dirty, scale, -gain); math.FMA(dirty, scale, acc)-acc != gain || r == v/2 || r == -v/2 {
		return 0, 0, 0
	}
	a, ds := int64(at/u), int64(step/u)
	k := (top-1-a)/ds - 1
	if cutoff < u*top {
		k = min(k, int64((cutoff-at)/u)/ds)
	}
	if g := int64(gain / v); g > 0 {
		k = min(k, (top-1-int64(acc/v))/g-1)
	}
	if k <= 0 {
		return 0, 0, 0
	}
	return float64(k), dirty, gain
}

// spacing returns the gap between adjacent floats in x's binade, or 0
// unless x is positive, finite and at least 2^-970, so that the gap is a
// normal float.
func spacing(x float64) float64 {
	e := math.Float64bits(x) >> 52 // the biased exponent; above 0x7ff for negative x
	if e <= 52 || e >= 0x7ff {
		return 0
	}
	return math.Float64frombits((e - 52) << 52)
}
