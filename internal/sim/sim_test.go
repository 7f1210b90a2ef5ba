package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(20, func() { fired = true })
	e.Schedule(10, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want horizon 12", e.Now())
	}
	// Remaining events still fire on resume.
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("resume missed events: %v", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt promptly: count=%d", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var cancel func()
	cancel = e.Ticker(10, 5, func(at Time) {
		ticks = append(ticks, at)
		if len(ticks) == 4 {
			cancel()
		}
	})
	e.RunUntil(1000)
	want := []Time{10, 15, 20, 25}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Ticker(0, 0, func(Time) {})
}

func TestNextHourBoundary(t *testing.T) {
	cases := []struct{ origin, t, want Time }{
		{0, 0, Hour},
		{0, 1, Hour},
		{0, 3599.9, Hour},
		{0, 3600, 2 * Hour},
		{100, 100, 100 + Hour},
		{100, 3699.9, 100 + Hour},
		{100, 3700, 100 + 2*Hour},
		{500, 200, 500 + Hour}, // t before origin
	}
	for _, c := range cases {
		if got := NextHourBoundary(c.origin, c.t); got != c.want {
			t.Errorf("NextHourBoundary(%v,%v) = %v, want %v", c.origin, c.t, got, c.want)
		}
	}
}

func TestNextHourBoundaryProperty(t *testing.T) {
	f := func(o, dt uint16) bool {
		origin := Time(o)
		tt := origin + Time(dt)
		b := NextHourBoundary(origin, tt)
		if b <= tt {
			return false
		}
		// b-origin must be a whole number of hours.
		n := (b - origin) / Hour
		return n == float64(int64(n)) && b-tt <= Hour
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHeapProperty drives the engine with seeded random traffic — dense
// timestamp ties, Schedule and Post mixed, cancels of events deep inside
// the heap, and handlers that post, schedule and cancel as they fire — and
// checks the fired sequence is exactly the (at, submission order) sort of
// every event that was not canceled before it fired.
func TestHeapProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkExactOrder(t, seed)
	}
}

func checkExactOrder(t *testing.T, seed int64) {
	t.Helper()
	type rec struct {
		at       Time
		fired    bool
		canceled bool
	}
	const maxEvents = 4000
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var recs []rec       // by submission order, which is the engine's seq order
	var handles []*Event // Schedule handles, indexed like ids
	var ids []int        // submission id of each handle
	var fired []int
	var submit func(at Time)
	var cancelRandom func()
	submit = func(at Time) {
		id := len(recs)
		recs = append(recs, rec{at: at})
		fn := func() {
			recs[id].fired = true
			fired = append(fired, id)
			if len(recs) < maxEvents {
				for k := rng.Intn(3); k > 0; k-- {
					// Delay 0 lands on the current instant, behind it.
					submit(e.Now() + Time(rng.Intn(4)))
				}
			}
			if rng.Intn(3) == 0 {
				cancelRandom()
			}
		}
		if rng.Intn(2) == 0 {
			e.Post(at, fn)
			return
		}
		handles = append(handles, e.Schedule(at, fn))
		ids = append(ids, id)
	}
	cancelRandom = func() {
		if len(handles) == 0 {
			return
		}
		k := rng.Intn(len(handles))
		if r := &recs[ids[k]]; !r.fired {
			r.canceled = true
		}
		e.Cancel(handles[k])
	}
	for i := 0; i < 1000; i++ {
		submit(Time(rng.Intn(50)))
	}
	for i := 0; i < 200; i++ {
		cancelRandom()
	}
	e.Run()

	var want []int
	for id, r := range recs {
		if !r.canceled {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return recs[want[i]].at < recs[want[j]].at })
	if len(fired) != len(want) {
		t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("seed %d: event %d fired #%d, want event %d (at %v vs %v)",
				seed, fired[i], i, want[i], recs[fired[i]].at, recs[want[i]].at)
		}
	}
	if e.Processed() != uint64(len(want)) {
		t.Fatalf("seed %d: Processed = %d, want %d", seed, e.Processed(), len(want))
	}
	if e.Pending() != 0 {
		t.Fatalf("seed %d: %d events left pending", seed, e.Pending())
	}
}

func TestDynamicScheduling(t *testing.T) {
	// Events scheduling further events, a chain of 1000.
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 1000 {
			e.After(1, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	if n != 1000 {
		t.Fatalf("chain length = %d", n)
	}
	if e.Now() != 999 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestPostOrderingMatchesSchedule(t *testing.T) {
	// Post and Schedule events at the same instant fire in submission
	// order, regardless of which API scheduled them.
	e := NewEngine()
	var got []int
	e.Post(10, func() { got = append(got, 0) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.PostAfter(10, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("wrong order: %v", got)
	}
}

func TestPostChainRecyclesEvents(t *testing.T) {
	// A long chain of posted events should recycle structs through the
	// free list rather than growing it without bound.
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 10000 {
			e.PostAfter(1, step)
		}
	}
	e.Post(0, step)
	e.Run()
	if n != 10000 {
		t.Fatalf("chain length = %d", n)
	}
	// Only one pooled event is ever in flight, so the free list should
	// hold no more than the preallocated slab.
	if len(e.free) > freelistSeed {
		t.Fatalf("free list grew to %d (seed %d)", len(e.free), freelistSeed)
	}
}

func TestCancelUnaffectedByRecycling(t *testing.T) {
	// Handles returned by Schedule must stay valid for Cancel even while
	// pooled events are being recycled around them.
	e := NewEngine()
	fired := false
	canceled := false
	ev := e.Schedule(50, func() { canceled = true })
	for i := 0; i < 100; i++ {
		e.Post(Time(i), func() {})
	}
	e.Post(25, func() { e.Cancel(ev) })
	e.Post(60, func() { fired = true })
	e.Run()
	if canceled {
		t.Fatal("canceled event fired")
	}
	if !fired {
		t.Fatal("later event did not fire")
	}
}

func TestFreeListGrowsGeometrically(t *testing.T) {
	// A burst of in-flight pooled events far beyond the seed should be
	// served by O(log n) doubling slab refills, not one allocation per
	// event, and the structs all recycle once the burst drains.
	e := NewEngine()
	const burst = 1000
	for i := 0; i < burst; i++ {
		e.Post(Time(i), func() {})
	}
	if e.slabSize < 512 {
		t.Fatalf("slabSize = %d after %d in-flight events, want >= 512", e.slabSize, burst)
	}
	e.Run()
	if len(e.free) < burst {
		t.Fatalf("free list holds %d events after drain, want >= %d", len(e.free), burst)
	}
}

func TestFreeListSlabCap(t *testing.T) {
	// Slab growth is capped so one pathological burst cannot commit
	// unbounded memory in a single refill.
	e := NewEngine()
	for i := 0; i < 5*maxSlabSize; i++ {
		e.Post(Time(i), func() {})
	}
	if e.slabSize != maxSlabSize {
		t.Fatalf("slabSize = %d, want capped at %d", e.slabSize, maxSlabSize)
	}
	e.Run()
}

func TestSteadyStateEventLoopZeroAllocs(t *testing.T) {
	// The event machinery underneath the hot loops (price chains, billing,
	// checkpoint daemons — see BenchmarkSchedulerMonth) must not allocate
	// per event once warm: pooled events recycle through the free list and
	// the heap stays at capacity.
	e := NewEngine()
	var fired int
	var step func()
	step = func() {
		fired++
		e.PostAfter(1, step)
	}
	for i := 0; i < 32; i++ {
		e.Post(Time(i), step)
	}
	horizon := Time(1000)
	e.RunUntil(horizon)
	allocs := testing.AllocsPerRun(5, func() {
		horizon += 1000
		e.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state event loop allocated %.2f per window, want 0", allocs)
	}
}

// BenchmarkEngineChurn measures the dispatch layer alone: a steady
// population of resident pooled events, each reposting itself at a spread
// of delays when it fires (the shape of the billing-hour, fleet-tick and
// provider price-clock traffic under a fleet month; the clock is one
// resident event per provider, however many markets it serves). One op is
// one executed event.
func BenchmarkEngineChurn(b *testing.B) {
	for _, resident := range []int{40, 200} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			// Delays are drawn up front so the loop times the engine only.
			rng := rand.New(rand.NewSource(1))
			delays := make([]Duration, 1024)
			for i := range delays {
				delays[i] = Duration(1 + rng.Intn(3600))
			}
			e := NewEngine()
			k := 0
			var step func()
			step = func() {
				e.PostAfter(delays[k%len(delays)], step)
				k++
			}
			for i := 0; i < resident; i++ {
				e.Post(Time(i), step)
			}
			for i := 0; i < 10*resident; i++ {
				e.step(math.Inf(1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step(math.Inf(1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
