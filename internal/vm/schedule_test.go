package vm

import (
	"fmt"
	"math"
	"math/rand/v2"
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
	f.Add(2.0, 8.0, 3.0, 36.6, 0.0, 1000.3, 3600.9, 4.0, uint8(3+8*18))
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
	// Whole days from a day before 2^21 s: the write clock and the sum
	// each cross binades, with c2 on a completion.
	f.Add(2.0, 8.0, 1.0, 36.6, 2010752.0, 40000.0, 2e6, 3.0, uint8(4+2+8*5))
	f.Add(2.0, 8.0, 39.0, 36.6, 1048000.0, 9e5, 2.5e6, 0.37, uint8(4))
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
		// Bound the work: at most ~2000 write cycles past the full image,
		// or, with pick's bit 2, up to 30 days but at most ~200,000
		// cycles, long enough for the write clock and the sum to cross
		// binades.
		cycles := 2000 * p.CheckpointInterval(spec)
		if pick&4 == 4 {
			cycles = math.Min(100*cycles, 30*sim.Day)
		}
		span := p.FullCheckpointTime(spec) + cycles
		if span <= p.FullCheckpointTime(spec) {
			span += sim.Day
		}
		c1 := start + math.Mod(math.Abs(w1), span)
		c2 := c1 + math.Mod(math.Abs(w2), span)
		// Snap a cutoff onto a completion: pick's bit 0 snaps c1, bit 1
		// snaps c2 onto a completion at or after c1; pick>>3 picks which.
		var all []write
		if pick&3 != 0 {
			all = stepUntil(NewDaemon(spec, p, start), c2+span)
		}
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
			c1 = snap(start, int(pick>>3))
			c2 = math.Max(c2, c1)
		}
		if pick&2 == 2 {
			c2 = snap(c1, int(pick>>3))
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

// stepSum steps d through every event strictly before cutoff and adds
// scale times each completed write to acc, one write at a time: the plain
// Step loop a fold must match.
func stepSum(d *Daemon, cutoff sim.Time, acc, scale float64) float64 {
	for {
		at, ok := d.Next()
		if !ok || at >= cutoff {
			return acc
		}
		if mb, wrote := d.Step(); wrote {
			acc += mb * scale
		}
	}
}

// TestDaemonFoldLongSpans checks month-long folds without an observer
// against the plain Step loop, bit for bit in the sum and the write
// clocks, whole and split at a random cutoff. The cases cross binades of
// the write clock (starts a day below 2^20 s and 2^21 s) and of the sum
// (an incoming sum just below 2^24), tie the clock's or the sum's
// rounding in one binade with a dyadic interval or scale, and run writes
// longer than the interval.
func TestDaemonFoldLongSpans(t *testing.T) {
	const month = 30 * sim.Day
	params := func(tau sim.Duration, writeMBps float64) Params {
		p := DefaultParams()
		p.CheckpointBound = tau
		if writeMBps > 0 {
			p.CheckpointWriteMBps = writeMBps
		}
		return p
	}
	// A 1 GB VM dirtying 4 MB/s and writing at 8 MB/s: tau = 4 s gives an
	// interval of exactly 8 s and 32 MB writes.
	dyadic := Spec{MemoryGB: 1, DirtyRateMBps: 4, Units: 1}
	// Its interval at tau = 4 + 2^-34 s is 8 + 2^-33 s, whose rounding
	// onto a clock in [2^20, 2^21) s (spacing 2^-32) is a tie.
	clockTie := params(4+0x1p-34, 8)
	if iv := clockTie.CheckpointInterval(dyadic); math.Abs(iv-((0x1p20+iv)-0x1p20)) != 0x1p-33 {
		t.Fatalf("interval %v does not tie at 2^20 s", iv)
	}
	// 32 MB scaled by 1 + 2^-34 is 32 + 2^-29, whose rounding onto a sum
	// in [2^24, 2^25) (spacing 2^-28) is a tie.
	const sumTieScale = 1 + 0x1p-34
	if x := 32 * sumTieScale; math.Abs(x-((0x1p24+x)-0x1p24)) != 0x1p-29 {
		t.Fatalf("write %v does not tie at a sum of 2^24", x)
	}
	cases := []struct {
		name       string
		spec       Spec
		p          Params
		start      sim.Time
		acc, scale float64
	}{
		{"tau=1", hostedVM, params(1, 0), 0, 0, 1},
		{"tau=3", hostedVM, params(3, 0), 0, 0, 1},
		{"tau=39", hostedVM, params(39, 0), 0, 0, 1},
		{"tau=3/clock-2^20", hostedVM, params(3, 0), 0x1p20 - sim.Day, 0, 3},
		{"tau=1/clock-2^21", hostedVM, params(1, 0), 0x1p21 - sim.Day, 0, 0.37},
		{"tau=39/clock-2^21", hostedVM, params(39, 0), 0x1p21 - sim.Day, 0, 2.5},
		{"tau=3/sum-2^24", hostedVM, params(3, 0), 0, 0x1p24 - 5e4, 1},
		{"clock-tie", dyadic, clockTie, 0x1p20 - sim.Day, 0, 1},
		{"sum-tie", dyadic, params(4, 8), 0, 0x1p24 - 1000, sumTieScale},
		{"clamp", Spec{MemoryGB: 2, DirtyRateMBps: 64, Units: 1}, params(3, 0), 1234.5, 0, 0.37},
	}
	rng := rand.New(rand.NewPCG(29, 3))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			end := c.start + month
			stepped := NewDaemon(c.spec, c.p, c.start)
			want := stepSum(stepped, end, c.acc, c.scale)

			whole := NewDaemon(c.spec, c.p, c.start)
			if got := whole.Fold(end, c.acc, c.scale, nil); math.Float64bits(got) != math.Float64bits(want) || !sameClocks(whole, stepped) {
				t.Fatalf("fold summed %v and left %+v, stepping %v and %+v", got, *whole, want, *stepped)
			}

			cut := c.start + rng.Float64()*month
			split := NewDaemon(c.spec, c.p, c.start)
			got := split.Fold(end, split.Fold(cut, c.acc, c.scale, nil), c.scale, nil)
			if math.Float64bits(got) != math.Float64bits(want) || !sameClocks(split, stepped) {
				t.Fatalf("fold split at %v summed %v and left %+v, stepping %v and %+v", cut, got, *split, want, *stepped)
			}
		})
	}
}

// foldSink keeps BenchmarkDaemonFold's folds live.
var foldSink float64

// BenchmarkDaemonFold folds one 30-day daemon epoch of the default hosted
// VM without an observer at tau = 1, 3 and 39 s, started at 0 and a day
// before 2^21 s, and reports how many writes the epoch completes.
func BenchmarkDaemonFold(b *testing.B) {
	for _, tau := range []sim.Duration{1, 3, 39} {
		for _, start := range []struct {
			name string
			at   sim.Time
		}{{"0", 0}, {"2^21-1d", 0x1p21 - sim.Day}} {
			b.Run(fmt.Sprintf("tau=%g/start=%s", tau, start.name), func(b *testing.B) {
				p := DefaultParams()
				p.CheckpointBound = tau
				end := start.at + 30*sim.Day
				writes := 0
				NewDaemon(hostedVM, p, start.at).Fold(end, 0, 1, func(float64) { writes++ })
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					foldSink = NewDaemon(hostedVM, p, start.at).Fold(end, 0, 1, nil)
				}
				b.ReportMetric(float64(writes), "writes/op")
			})
		}
	}
}
