package vm

import (
	"math"
	"testing"

	"spothost/internal/sim"
)

// liveDaemon is the event-driven checkpoint daemon that Daemon's fold
// replaces, kept as its oracle: every event is a sim.Engine event that
// posts its successor, and Stop makes every later event a no-op.
type liveDaemon struct {
	eng  *sim.Engine
	spec Spec
	p    Params

	stopped   bool
	lastStart sim.Time
	pendingMB float64
	next      daemonEvent
	nextAt    sim.Time
	writes    []write
}

// write is one completed checkpoint write.
type write struct {
	at sim.Time
	mb float64
}

// startLive starts an oracle daemon at the engine's current time.
func startLive(eng *sim.Engine, spec Spec, p Params) *liveDaemon {
	d := &liveDaemon{eng: eng, spec: spec, p: p, lastStart: eng.Now()}
	d.post(daemonFullDone, eng.Now()+spec.MemoryMB()/p.CheckpointWriteMBps, func() { d.done(spec.MemoryMB()) })
	return d
}

func (d *liveDaemon) post(kind daemonEvent, at sim.Time, fn func()) {
	d.next, d.nextAt = kind, at
	d.eng.Post(at, fn)
}

// done completes a write and arms the next increment at the Yank
// interval.
func (d *liveDaemon) done(mb float64) {
	if d.stopped {
		return
	}
	d.writes = append(d.writes, write{d.eng.Now(), mb})
	interval := d.p.CheckpointInterval(d.spec)
	if interval <= 0 {
		d.next = daemonIdle
		return
	}
	target := d.lastStart + interval
	if now := d.eng.Now(); target <= now {
		target = now
	}
	d.post(daemonIncrStart, target, d.writeIncrement)
}

// writeIncrement starts writing everything dirtied since lastStart.
func (d *liveDaemon) writeIncrement() {
	if d.stopped {
		return
	}
	now := d.eng.Now()
	dirty := d.spec.DirtyRateMBps * (now - d.lastStart)
	if max := d.spec.MemoryMB(); dirty > max {
		dirty = max
	}
	d.lastStart = now
	d.pendingMB = dirty
	d.post(daemonIncrDone, now+dirty/d.p.CheckpointWriteMBps, func() { d.done(d.pendingMB) })
}

// sameState reports whether the fold's write clocks and pending event
// equal the oracle's bit for bit.
func (d *liveDaemon) sameState(f *Daemon) bool {
	return math.Float64bits(d.lastStart) == math.Float64bits(f.lastStart) &&
		math.Float64bits(d.pendingMB) == math.Float64bits(f.pendingMB) &&
		d.next == f.next && math.Float64bits(d.nextAt) == math.Float64bits(f.nextAt)
}

// stepUntil steps d through every event strictly before cutoff and
// returns the writes it completed.
func stepUntil(d *Daemon, cutoff sim.Time) []write {
	var ws []write
	for {
		at, ok := d.Next()
		if !ok || at >= cutoff {
			return ws
		}
		if mb, wrote := d.Step(); wrote {
			ws = append(ws, write{at, mb})
		}
	}
}

// sameWrites reports whether two write sequences are bitwise equal.
func sameWrites(a, b []write) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].at) != math.Float64bits(b[i].at) ||
			math.Float64bits(a[i].mb) != math.Float64bits(b[i].mb) {
			return false
		}
	}
	return true
}

// finalSaveTime is how long a final save started at now would take: the
// exposed increment plus, while a write is in flight, one bound's worth
// of backlog ahead of it. The Yank bound promises it stays within ~2x
// CheckpointBound.
func finalSaveTime(d *Daemon, now sim.Time) sim.Duration {
	exposed := math.Min(d.spec.DirtyRateMBps*(now-d.lastStart), d.spec.MemoryMB())
	t := exposed / d.p.CheckpointWriteMBps
	if d.next == daemonFullDone || d.next == daemonIncrDone {
		t += float64(d.p.CheckpointBound)
	}
	return t
}

func TestDaemonValidation(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, tau := range []sim.Duration{0, -3, math.NaN()} {
		p := DefaultParams()
		p.CheckpointBound = tau
		if err := p.Validate(); err == nil {
			t.Errorf("checkpoint bound %v accepted", tau)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonBoundHolds steps the daemon through hours of virtual time and
// checks the Yank invariant at regular instants: the final save always
// completes within ~2x the bound (one in-flight write plus the exposed
// increment).
func TestDaemonBoundHolds(t *testing.T) {
	p := DefaultParams()
	d := NewDaemon(hostedVM, p, 0)
	full := hostedVM.MemoryMB() / p.CheckpointWriteMBps
	bound := float64(p.CheckpointBound)

	var writes []write
	violations := 0
	// Sample after the initial full checkpoint has completed.
	for i := 0; i < 500; i++ {
		at := full + 1 + float64(i)*37.3
		writes = append(writes, stepUntil(d, at)...)
		if finalSaveTime(d, at) > 2*bound+1e-9 {
			violations++
		}
	}
	writes = append(writes, stepUntil(d, 6*sim.Hour)...)
	if violations > 0 {
		t.Fatalf("Yank bound violated at %d/500 instants", violations)
	}
	if writes[0].mb != hostedVM.MemoryMB() {
		t.Fatalf("first write %v MB, want the full image", writes[0].mb)
	}
	if incrementals := len(writes) - 1; incrementals < 100 {
		t.Fatalf("too few incrementals: %d", incrementals)
	}
}

// TestDaemonWriteVolume: total bytes written over a window approximate the
// dirty rate (the daemon only writes what was dirtied, plus the initial
// full image).
func TestDaemonWriteVolume(t *testing.T) {
	horizon := 4 * sim.Hour
	total := NewDaemon(hostedVM, DefaultParams(), 0).Fold(horizon, 0, 1, nil)
	expected := hostedVM.MemoryMB() + hostedVM.DirtyRateMBps*horizon
	if total < expected*0.8 || total > expected*1.05 {
		t.Fatalf("bytes written %.0f MB, expected ~%.0f MB", total, expected)
	}
}

// TestDaemonObserver: Fold hands its observer exactly the writes that
// stepping event by event completes, in order.
func TestDaemonObserver(t *testing.T) {
	var folded []float64
	NewDaemon(hostedVM, DefaultParams(), 0).Fold(2*sim.Hour, 0, 1, func(mb float64) { folded = append(folded, mb) })
	stepped := stepUntil(NewDaemon(hostedVM, DefaultParams(), 0), 2*sim.Hour)
	if len(folded) != len(stepped) {
		t.Fatalf("observer saw %d writes, stepping completed %d", len(folded), len(stepped))
	}
	for i, w := range stepped {
		if folded[i] != w.mb {
			t.Fatalf("write %d: observer saw %v MB, stepping wrote %v", i, folded[i], w.mb)
		}
	}
	if len(folded) < 2 {
		t.Fatalf("observer missed incrementals: %v", folded)
	}
}

func TestDaemonIdleVM(t *testing.T) {
	idle := Spec{MemoryGB: 2, DirtyRateMBps: 0, Units: 1}
	d := NewDaemon(idle, DefaultParams(), 0)
	writes := stepUntil(d, 3*sim.Hour)
	if len(writes) != 1 || writes[0].mb != idle.MemoryMB() {
		t.Fatalf("idle VM should checkpoint once: %+v", writes)
	}
	if _, ok := d.Next(); ok {
		t.Fatal("idle VM still has a pending event")
	}
	if got := finalSaveTime(d, 3*sim.Hour); got != 0 {
		t.Fatalf("idle final save = %v", got)
	}
}

// TestDaemonStopHaltsWrites: stopping the event-driven daemon at an
// instant leaves exactly the writes the fold completes strictly before
// it, and no write after.
func TestDaemonStopHaltsWrites(t *testing.T) {
	eng := sim.NewEngine()
	var live *liveDaemon
	var atStop int
	eng.Post(sim.Hour, func() { live.stopped = true; atStop = len(live.writes) })
	live = startLive(eng, hostedVM, DefaultParams())
	eng.RunUntil(3 * sim.Hour)
	if len(live.writes) != atStop {
		t.Fatal("daemon kept writing after Stop")
	}
	if folded := stepUntil(NewDaemon(hostedVM, DefaultParams(), 0), sim.Hour); !sameWrites(live.writes, folded) {
		t.Fatalf("stopped daemon wrote %d times, the fold %d", len(live.writes), len(folded))
	}
}

// TestDaemonIntervalMatchesAnalyticModel: the daemon's cycle matches
// Params.CheckpointInterval.
func TestDaemonIntervalMatchesAnalyticModel(t *testing.T) {
	p := DefaultParams()
	interval := p.CheckpointInterval(hostedVM)
	horizon := 5 * sim.Hour
	incrementals := len(stepUntil(NewDaemon(hostedVM, p, 0), horizon)) - 1
	// After the initial full write, increments recur every interval (the
	// write itself overlaps the next interval's accumulation).
	expected := (horizon - hostedVM.MemoryMB()/p.CheckpointWriteMBps) / interval
	if float64(incrementals) < expected*0.9 || float64(incrementals) > expected*1.1 {
		t.Fatalf("incrementals = %d, expected ~%.0f", incrementals, expected)
	}
}

// TestReplayDaemonMatchesLive: the fold reproduces the event-driven
// daemon's writes and state at cutoffs off the write grid.
func TestReplayDaemonMatchesLive(t *testing.T) {
	for _, cutoff := range []sim.Time{10.7, 500.3, 3600.9, 86400.1} {
		checkSchedule(t, hostedVM, DefaultParams(), 0, cutoff)
	}
}

// TestDaemonFoldContinues: a fold stopped at one instant and resumed later
// — what a forked scheduler does at its checkpoint — completes exactly
// the writes of one uninterrupted fold.
func TestDaemonFoldContinues(t *testing.T) {
	p := DefaultParams()
	const cut, horizon = 1000.3, 7200.0
	var whole, split []float64
	NewDaemon(hostedVM, p, 0).Fold(horizon, 0, 1, func(mb float64) { whole = append(whole, mb) })
	d := NewDaemon(hostedVM, p, 0)
	d.Fold(cut, 0, 1, func(mb float64) { split = append(split, mb) })
	d.Fold(horizon, 0, 1, func(mb float64) { split = append(split, mb) })
	if len(split) != len(whole) {
		t.Fatalf("%d resumed writes vs %d uninterrupted", len(split), len(whole))
	}
	for i := range whole {
		if split[i] != whole[i] {
			t.Fatalf("write %d: resumed %v != uninterrupted %v", i, split[i], whole[i])
		}
	}
}

// checkSchedule compares the fold of a daemon started at start with the
// event-driven oracle at cutoff, twice: stopped by an event at cutoff
// that precedes the daemon's own (a stop folds writes strictly before
// it), and run to a horizon at cutoff (RunUntil fires events at the
// horizon). Write times and sizes, the accumulated MB, and the write
// clocks must agree bit for bit.
func checkSchedule(t *testing.T, spec Spec, p Params, start, cutoff sim.Time) {
	t.Helper()
	for _, inclusive := range []bool{false, true} {
		eng := sim.NewEngineAt(start)
		var live *liveDaemon
		if !inclusive {
			eng.Post(cutoff, func() { live.stopped = true; eng.Stop() })
		}
		live = startLive(eng, spec, p)
		eng.RunUntil(cutoff)

		foldCut := cutoff
		if inclusive {
			foldCut = math.Nextafter(cutoff, math.Inf(1))
		}
		stepped := NewDaemon(spec, p, start)
		writes := stepUntil(stepped, foldCut)
		folded := NewDaemon(spec, p, start)
		total := folded.Fold(foldCut, 0, 1, nil)

		liveTotal := 0.0
		for _, w := range live.writes {
			liveTotal += w.mb
		}
		switch {
		case !sameWrites(live.writes, writes):
			t.Fatalf("cutoff %v inclusive=%v: live writes %v, fold %v", cutoff, inclusive, live.writes, writes)
		case math.Float64bits(total) != math.Float64bits(liveTotal):
			t.Fatalf("cutoff %v inclusive=%v: live wrote %v MB, fold %v", cutoff, inclusive, liveTotal, total)
		case !live.sameState(stepped) || !live.sameState(folded):
			t.Fatalf("cutoff %v inclusive=%v: live state %+v, fold %+v", cutoff, inclusive, *live, *folded)
		}
	}
}

// FuzzCheckpointSchedule checks the fold against the event-driven oracle
// over memory sizes, dirty rates (zero included), bounds, start times and
// cutoffs, half of which land exactly on a write instant.
func FuzzCheckpointSchedule(f *testing.F) {
	f.Add(2.0, 8.0, 3.0, 0.0, 3600.9, uint16(0))
	f.Add(1.4, 8.0, 7.5, 1234.5, 500.0, uint16(7))
	f.Add(2.0, 0.0, 3.0, 17.0, 10000.0, uint16(1))
	f.Add(0.5, 200.0, 1.0, 0.0, 120.0, uint16(33))
	f.Add(64.0, 0.25, 40.0, 86400.0, 50000.0, uint16(5))
	f.Fuzz(func(t *testing.T, memGB, dirty, tau, start, window float64, pick uint16) {
		for _, v := range []float64{memGB, dirty, tau, start, window} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		spec := Spec{MemoryGB: 0.25 + math.Mod(math.Abs(memGB), 64), DirtyRateMBps: math.Mod(math.Abs(dirty), 256), Units: 1}
		p := DefaultParams()
		p.CheckpointBound = 0.05 + math.Mod(math.Abs(tau), 120)
		start = math.Mod(math.Abs(start), 30*sim.Day)
		// Bound the work: at most ~2000 write cycles past the full image.
		span := 2000 * p.CheckpointInterval(spec)
		if span <= 0 {
			span = sim.Day
		}
		cutoff := start + p.FullCheckpointTime(spec) + math.Mod(math.Abs(window), span)
		if pick%2 == 1 {
			if writes := stepUntil(NewDaemon(spec, p, start), cutoff); len(writes) > 0 {
				cutoff = writes[int(pick/2)%len(writes)].at
			}
		}
		checkSchedule(t, spec, p, start, cutoff)
	})
}

// sameClocks reports whether two daemons' write clocks and pending events
// are equal bit for bit.
func sameClocks(a, b *Daemon) bool {
	return math.Float64bits(a.lastStart) == math.Float64bits(b.lastStart) &&
		math.Float64bits(a.pendingMB) == math.Float64bits(b.pendingMB) &&
		a.next == b.next && math.Float64bits(a.nextAt) == math.Float64bits(b.nextAt)
}

// foldWrites folds d to cutoff from acc and returns the new sum and the
// sizes Fold handed its observer.
func foldWrites(d *Daemon, cutoff sim.Time, acc, scale float64) (float64, []float64) {
	var mbs []float64
	acc = d.Fold(cutoff, acc, scale, func(mb float64) { mbs = append(mbs, mb) })
	return acc, mbs
}

// FuzzDaemonFold checks the fused Fold against a plain Step loop over
// memory sizes, dirty rates (zero included), bounds, write bandwidths,
// start times, a scale and two cutoffs c1 <= c2, either of which may land
// exactly on a write's completion. Write sizes, the scaled sum (with and
// without an observer), the write clocks left at c2, and a fold split at
// c1 must all equal stepping straight to c2, bit for bit.
func FuzzDaemonFold(f *testing.F) {
	// Cutoffs exactly at write completions.
	f.Add(2.0, 8.0, 3.0, 36.6, 0.0, 1000.3, 3600.9, 4.0, uint8(3+4*37))
	// Writes longer than the interval (the clamp to the completion),
	// backlogs shrinking below the memory size.
	f.Add(2.0, 30.0, 3.0, 36.6, 17.0, 300.0, 900.0, 0.37, uint8(0))
	// A dirty rate above the write bandwidth: every backlog is capped at
	// the memory size.
	f.Add(0.5, 200.0, 1.0, 36.6, 1234.5, 50.0, 400.0, 3.0, uint8(2))
	// Zero dirty rate: the full image, then nothing.
	f.Add(2.0, 0.0, 3.0, 36.6, 86400.0, 10.0, 5000.0, 2.5, uint8(1))
	// The first full write (56 s) straddles c1.
	f.Add(2.0, 8.0, 7.5, 36.6, 0.0, 20.0, 2000.0, 0.001, uint8(0))
	f.Fuzz(func(t *testing.T, memGB, dirty, tau, writeMBps, start, w1, w2, scale float64, pick uint8) {
		for _, v := range []float64{memGB, dirty, tau, writeMBps, start, w1, w2, scale} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		spec := Spec{MemoryGB: 0.25 + math.Mod(math.Abs(memGB), 64), DirtyRateMBps: math.Mod(math.Abs(dirty), 256), Units: 1}
		p := DefaultParams()
		p.CheckpointBound = 0.05 + math.Mod(math.Abs(tau), 120)
		p.CheckpointWriteMBps = 1 + math.Mod(math.Abs(writeMBps), 255)
		start = math.Mod(math.Abs(start), 30*sim.Day)
		// Bound the work: at most ~2000 write cycles past the full image.
		span := p.FullCheckpointTime(spec) + 2000*p.CheckpointInterval(spec)
		if span <= p.FullCheckpointTime(spec) {
			span += sim.Day
		}
		c1 := start + math.Mod(math.Abs(w1), span)
		c2 := c1 + math.Mod(math.Abs(w2), span)
		// Snap a cutoff onto a completion: pick's bit 0 snaps c1, bit 1
		// snaps c2 onto a completion at or after c1.
		all := stepUntil(NewDaemon(spec, p, start), c2+span)
		snap := func(from sim.Time, k int) sim.Time {
			var at []sim.Time
			for _, w := range all {
				if w.at >= from {
					at = append(at, w.at)
				}
			}
			if len(at) == 0 {
				return from
			}
			return at[k%len(at)]
		}
		if pick&1 == 1 {
			c1 = snap(start, int(pick>>2))
			c2 = math.Max(c2, c1)
		}
		if pick&2 == 2 {
			c2 = snap(c1, int(pick>>2))
		}

		stepped := NewDaemon(spec, p, start)
		writes := stepUntil(stepped, c2)
		want := 0.0
		for _, w := range writes {
			want += w.mb * scale
		}

		whole := NewDaemon(spec, p, start)
		got, mbs := foldWrites(whole, c2, 0, scale)
		if len(mbs) != len(writes) {
			t.Fatalf("fold wrote %d times, stepping %d", len(mbs), len(writes))
		}
		for i, w := range writes {
			if math.Float64bits(mbs[i]) != math.Float64bits(w.mb) {
				t.Fatalf("write %d: fold %v MB, stepping %v", i, mbs[i], w.mb)
			}
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fold summed %v, stepping %v", got, want)
		}
		if !sameClocks(whole, stepped) {
			t.Fatalf("fold left %+v, stepping %+v", *whole, *stepped)
		}

		quiet := NewDaemon(spec, p, start)
		if q := quiet.Fold(c2, 0, scale, nil); math.Float64bits(q) != math.Float64bits(want) || !sameClocks(quiet, stepped) {
			t.Fatalf("fold without an observer summed %v and left %+v, stepping %v and %+v", q, *quiet, want, *stepped)
		}

		split := NewDaemon(spec, p, start)
		acc, first := foldWrites(split, c1, 0, scale)
		acc, rest := foldWrites(split, c2, acc, scale)
		if math.Float64bits(acc) != math.Float64bits(want) || len(first)+len(rest) != len(writes) || !sameClocks(split, stepped) {
			t.Fatalf("fold split at %v: %d+%d writes summing %v, left %+v; straight to %v: %d writes summing %v, left %+v",
				c1, len(first), len(rest), acc, *split, c2, len(writes), want, *stepped)
		}
	})
}

// foldSink keeps BenchmarkDaemonFold's folds live.
var foldSink float64

// BenchmarkDaemonFold folds one 30-day daemon epoch of the default hosted
// VM at tau = 3 s.
func BenchmarkDaemonFold(b *testing.B) {
	p := DefaultParams()
	writes := 0
	NewDaemon(hostedVM, p, 0).Fold(30*sim.Day, 0, 1, func(float64) { writes++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldSink = NewDaemon(hostedVM, p, 0).Fold(30*sim.Day, 0, 1, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(writes), "writes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(writes), "ns/write")
}
