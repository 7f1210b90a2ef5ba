// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in seconds and a pending
// event heap. Events scheduled for the same instant fire in the order they
// were scheduled (FIFO tie-break by sequence number), which makes every run
// fully deterministic given deterministic event handlers.
//
// The kernel is intentionally single-threaded: the cloud-provider, market
// and scheduler models all run inside one event loop, which is both faster
// and easier to reason about than goroutine-per-entity designs for this
// workload (hundreds of thousands of tiny events).
package sim

import (
	"context"
	"fmt"
	"math"

	"spothost/internal/obs"
	"spothost/internal/trace"
)

// Time is a virtual timestamp in seconds since the start of the simulation.
type Time = float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Common durations, in seconds.
const (
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * Hour
)

// Event is a scheduled callback. The zero Event is invalid.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	pooled   bool // no external handle: recycle after firing
	index    int  // heap index, -1 once popped
}

// before reports whether a fires before b: earlier time first, then
// earlier scheduling. seq is unique per engine, so this is a strict total
// order and the pop sequence is independent of the heap's internal layout.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of events under before. It is written
// out by hand rather than through container/heap so every comparison and
// move is a direct, inlinable call on the hot path. Each event's index
// tracks its slot, so Cancel removes in O(log n).
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// remove deletes the event at slot i and returns it with index -1.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	ev := h[i]
	h[i] = h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		h[i].index = i
		if !q.down(i) {
			q.up(i)
		}
	}
	ev.index = -1
	return ev
}

// up moves the event at slot i toward the root until its parent fires
// before it.
func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !before(ev, parent) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down moves the event at slot i toward the leaves until it fires before
// both children, reporting whether it moved.
func (q eventQueue) down(i int) bool {
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		child := q[c]
		if !before(child, ev) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > start
}

// Engine is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pending eventQueue
	stopped bool
	// processed counts events executed, exposed for tests and reports.
	processed uint64
	// free recycles Event structs of fired Post events. Only handle-less
	// (pooled) events return here, so a recycled struct can never alias a
	// *Event a caller still holds; both Schedule and Post draw from it.
	// Refills allocate slabs that double in size (slabSize, capped at
	// maxSlabSize), so an engine whose in-flight working set outgrows the
	// seed reaches zero-alloc steady state after O(log n) slab allocations
	// instead of one allocation per event.
	free     []*Event
	slabSize int
	// ctx, when non-nil, is polled every pollEvery executed events; a
	// canceled context halts the run loop and is reported by Err. Polling
	// between events (never mid-event) keeps the event order — and hence
	// the simulation's determinism — independent of when cancel arrives.
	ctx       context.Context
	ctxErr    error
	pollEvery uint64
	// rec, when non-nil, is the run's trace recorder. The engine only
	// carries it — models sharing the engine (provider, scheduler, fleet)
	// read it via Recorder() so one plumbing point reaches every layer. A
	// nil recorder no-ops every trace call.
	rec *trace.Recorder
	// ob, when non-nil, is the run's telemetry recorder (internal/obs).
	// Same carrier pattern as rec: the engine only holds it, models read
	// it via Obs() and guard on nil at each hook.
	ob *obs.Recorder
}

// CancelPollInterval is the default number of executed events between
// context-cancellation polls. A month-long run executes hundreds of
// thousands of events, so a canceled run aborts within a tiny fraction of
// its remaining work (one "event batch") at a per-event cost too small to
// measure.
const CancelPollInterval = 1024

// freelistSeed is the number of Event structs in the first slab; the hot
// loop's working set (in-flight fire-and-forget events) rarely exceeds it,
// so steady-state Post traffic allocates nothing.
const freelistSeed = 64

// maxSlabSize caps the geometric slab growth so a pathological burst does
// not commit unbounded memory in one step.
const maxSlabSize = 8192

// NewEngine returns an empty engine with its clock at 0 and a preallocated
// event free-list.
func NewEngine() *Engine {
	e := &Engine{}
	e.refill()
	return e
}

// NewEngineAt returns an empty engine with its clock already advanced to t.
// It is the entry point for forked simulations: a run restored from a
// mid-horizon checkpoint schedules its rearm events at absolute times >= t,
// so the engine must start there rather than replaying [0, t).
func NewEngineAt(t Time) *Engine {
	e := NewEngine()
	e.now = t
	return e
}

// refill grows the free list by one slab, doubling the slab size (up to
// maxSlabSize) on each refill.
func (e *Engine) refill() {
	if e.slabSize == 0 {
		e.slabSize = freelistSeed
	} else if e.slabSize < maxSlabSize {
		e.slabSize *= 2
	}
	slab := make([]Event, e.slabSize)
	for i := range slab {
		e.free = append(e.free, &slab[i])
	}
}

// acquire returns an Event from the free list, refilling it with a fresh
// slab when empty.
func (e *Engine) acquire(at Time, fn func(), pooled bool) *Event {
	n := len(e.free)
	if n == 0 {
		e.refill()
		n = len(e.free)
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	*ev = Event{at: at, seq: e.seq, fn: fn, pooled: pooled}
	e.seq++
	return ev
}

// release returns a pooled event's struct to the free list.
func (e *Engine) release(ev *Event) {
	*ev = Event{} // drop the fn closure so it can be collected
	e.free = append(e.free, ev)
}

// SetRecorder attaches a trace recorder to the engine (nil detaches).
// Models built on the engine read it back via Recorder at each
// instrumentation point, so attach before — or after — constructing them.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the attached trace recorder, nil when tracing is off.
// The nil recorder is a valid no-op receiver, so callers use the result
// unconditionally.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// SetObs attaches a telemetry recorder to the engine (nil detaches);
// models read it back via Obs at each hook, exactly like SetRecorder.
func (e *Engine) SetObs(o *obs.Recorder) { e.ob = o }

// Obs returns the attached telemetry recorder, nil when telemetry is
// off. Hooks guard on nil before building arguments, so the disabled
// path costs nothing.
func (e *Engine) Obs() *obs.Recorder { return e.ob }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events (including canceled ones not yet
// reaped) waiting in the queue.
func (e *Engine) Pending() int { return len(e.pending) }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: it always indicates a model bug, and silently
// clamping would hide it.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := e.schedule(at, fn, false)
	return ev
}

// After runs fn after delay d from the current time. Negative delays panic.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// Post runs fn at absolute virtual time at, like Schedule, but returns no
// handle: the event cannot be canceled, and in exchange its Event struct
// is recycled through the engine's free list after it fires. Hot loops
// that never cancel (price steps, billing ticks, migration deadlines)
// should Post rather than Schedule to avoid one allocation per event.
func (e *Engine) Post(at Time, fn func()) {
	e.schedule(at, fn, true)
}

// PostAfter runs fn after delay d from the current time, without a handle
// (see Post). Negative delays panic.
func (e *Engine) PostAfter(d Duration, fn func()) {
	e.schedule(e.now+d, fn, true)
}

func (e *Engine) schedule(at Time, fn func(), pooled bool) *Event {
	if math.IsNaN(at) {
		panic("sim: Schedule at NaN")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: Schedule at %v before now %v", at, e.now))
	}
	ev := e.acquire(at, fn, pooled)
	e.pending.push(ev)
	return ev
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired or was already canceled is a harmless no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	// The event stays in the heap and is skipped when popped; removing it
	// eagerly keeps the heap small when cancellation is common.
	if ev.index >= 0 && ev.index < len(e.pending) && e.pending[ev.index] == ev {
		e.pending.remove(ev.index)
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// SetContext arms the engine's cancellation check: while ctx is live the
// run loops poll ctx.Err() every CancelPollInterval executed events (see
// SetCancelPollInterval) and halt when it is non-nil. A nil ctx disarms
// the check. Setting a context clears any previously recorded Err.
func (e *Engine) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		// A nil Done channel means the context can never be canceled —
		// context.Background(), context.TODO(), or any uncancelable wrapper
		// (e.g. context.WithValue over Background): skip the poll entirely.
		ctx = nil
	}
	e.ctx = ctx
	e.ctxErr = nil
	if e.pollEvery == 0 {
		e.pollEvery = CancelPollInterval
	}
}

// SetCancelPollInterval overrides how many events execute between context
// polls (the "event batch" a canceled run may still execute). Non-positive
// n restores CancelPollInterval.
func (e *Engine) SetCancelPollInterval(n int) {
	if n <= 0 {
		e.pollEvery = CancelPollInterval
		return
	}
	e.pollEvery = uint64(n)
}

// Err reports why the last run halted early: the context's error when the
// run was canceled, nil otherwise (including after Stop).
func (e *Engine) Err() error { return e.ctxErr }

// canceled polls the armed context, recording its error and halting the
// loop when it is done.
func (e *Engine) canceled() bool {
	if e.ctx == nil {
		return false
	}
	if err := e.ctx.Err(); err != nil {
		e.ctxErr = err
		e.stopped = true
		return true
	}
	return false
}

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (e *Engine) step(limit Time) bool {
	for len(e.pending) > 0 {
		next := e.pending[0]
		if next.canceled {
			e.pending.remove(0)
			continue
		}
		if next.at > limit {
			return false
		}
		e.pending.remove(0)
		e.now = next.at
		e.processed++
		fn := next.fn
		if next.pooled {
			// Nothing outside the engine references a pooled event, so its
			// struct can be reused by the next acquire. Recycle before fn
			// runs so an event scheduled by fn can claim it immediately.
			e.release(next)
		}
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains, Stop is called, or the
// context set via SetContext is canceled.
func (e *Engine) Run() {
	e.stopped = false
	if e.canceled() {
		return
	}
	mark := e.processed
	for !e.stopped && e.step(math.Inf(1)) {
		if e.ctx != nil && e.processed-mark >= e.pollEvery {
			mark = e.processed
			if e.canceled() {
				return
			}
		}
	}
}

// RunUntil executes events with timestamps <= horizon, then advances the
// clock to exactly horizon. Events scheduled beyond the horizon remain
// pending. A run halted by Stop or by context cancellation (see
// SetContext; check Err) leaves the clock at the last executed event.
func (e *Engine) RunUntil(horizon Time) {
	e.stopped = false
	if e.canceled() {
		return
	}
	mark := e.processed
	for !e.stopped && e.step(horizon) {
		if e.ctx != nil && e.processed-mark >= e.pollEvery {
			mark = e.processed
			if e.canceled() {
				return
			}
		}
	}
	if !e.stopped && horizon > e.now {
		e.now = horizon
	}
}

// RunUntilCtx runs like RunUntil under ctx and returns the context's error
// when the run was canceled before reaching the horizon, nil otherwise. It
// is the cancelable entry point the serving layer uses: a month-long
// simulation aborts within one cancellation-poll batch of events (default
// CancelPollInterval) after ctx is canceled.
func (e *Engine) RunUntilCtx(ctx context.Context, horizon Time) error {
	e.SetContext(ctx)
	e.RunUntil(horizon)
	return e.Err()
}

// Ticker invokes fn every period, starting at start, until the returned
// cancel function is called. fn receives the tick time.
func (e *Engine) Ticker(start Time, period Duration, fn func(Time)) (cancel func()) {
	if period <= 0 {
		panic("sim: Ticker with non-positive period")
	}
	stopped := false
	var tick func()
	at := start
	var ev *Event
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		at += period
		ev = e.Schedule(at, tick)
	}
	ev = e.Schedule(at, tick)
	return func() {
		stopped = true
		e.Cancel(ev)
	}
}

// NextHourBoundary returns the earliest multiple of Hour that is strictly
// greater than t, measured from origin. It is used for billing-hour clocks
// that start at instance launch rather than at time zero.
func NextHourBoundary(origin, t Time) Time {
	if t < origin {
		return origin + Hour
	}
	elapsed := t - origin
	n := math.Floor(elapsed/Hour) + 1
	return origin + n*Hour
}
