package sim

import (
	"context"
	"errors"
	"testing"
)

// chain posts a self-perpetuating event every second, forever.
func chain(e *Engine) {
	var tick func()
	tick = func() { e.PostAfter(1, tick) }
	e.PostAfter(1, tick)
}

func TestRunUntilCtxCancelMidRun(t *testing.T) {
	e := NewEngine()
	chain(e)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetCancelPollInterval(64)

	// Cancel from inside an event handler: deterministic, no timers.
	fired := false
	e.Schedule(500, func() { fired = true; cancel() })

	err := e.RunUntilCtx(ctx, 365*Day)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired {
		t.Fatal("cancel event never fired")
	}
	// The engine must stop within one poll batch of the cancel, not run
	// out the year-long horizon.
	if e.Now() > 500+64+1 {
		t.Fatalf("engine ran to %v after cancel at 500 (poll interval 64)", e.Now())
	}
	if e.Err() == nil {
		t.Fatal("Err() lost the cancellation")
	}
}

func TestRunUntilCtxPreCanceled(t *testing.T) {
	e := NewEngine()
	chain(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunUntilCtx(ctx, Day); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if e.Processed() != 0 {
		t.Fatalf("processed %d events under a pre-canceled context", e.Processed())
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v despite cancellation", e.Now())
	}
}

func TestRunUntilCtxBackgroundIdentical(t *testing.T) {
	// A background context must not change behavior or results.
	run := func(ctx context.Context) (Time, uint64) {
		e := NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				e.PostAfter(1, tick)
			}
		}
		e.PostAfter(1, tick)
		if ctx == nil {
			e.RunUntil(2000)
		} else if err := e.RunUntilCtx(ctx, 2000); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Processed()
	}
	plainNow, plainN := run(nil)
	ctxNow, ctxN := run(context.Background())
	if plainNow != ctxNow || plainN != ctxN {
		t.Fatalf("background ctx changed the run: (%v,%d) vs (%v,%d)",
			plainNow, plainN, ctxNow, ctxN)
	}
}

// uncancelableKey is the context key used to build wrapped-but-uncancelable
// contexts in tests.
type uncancelableKey struct{}

func TestSetContextUncancelableFastPath(t *testing.T) {
	// The never-canceled fast path must trigger on Done() == nil, not on
	// identity with context.Background()/TODO(): a WithValue wrapper over
	// Background is equally uncancelable but compares unequal to both.
	cases := map[string]context.Context{
		"background": context.Background(),
		"todo":       context.TODO(),
		"withvalue":  context.WithValue(context.Background(), uncancelableKey{}, "x"),
		"nested":     context.WithValue(context.WithValue(context.Background(), uncancelableKey{}, 1), uncancelableKey{}, 2),
	}
	for name, ctx := range cases {
		e := NewEngine()
		e.SetContext(ctx)
		if e.ctx != nil {
			t.Errorf("%s: SetContext kept an uncancelable context armed (polls for nothing)", name)
		}
	}

	// A cancelable context must stay armed...
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetContext(ctx)
	if e.ctx == nil {
		t.Fatal("SetContext dropped a cancelable context")
	}
	// ...including when wrapped in values (Done passes through the wrapper).
	e.SetContext(context.WithValue(ctx, uncancelableKey{}, "x"))
	if e.ctx == nil {
		t.Fatal("SetContext dropped a value-wrapped cancelable context")
	}
	// And a wrapped-uncancelable run still completes with no error.
	e2 := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 100 {
			e2.PostAfter(1, tick)
		}
	}
	e2.PostAfter(1, tick)
	if err := e2.RunUntilCtx(context.WithValue(context.Background(), uncancelableKey{}, "y"), 200); err != nil {
		t.Fatalf("RunUntilCtx under uncancelable wrapper: %v", err)
	}
	if n != 100 {
		t.Fatalf("run stopped early: %d ticks", n)
	}
}

func TestDeadlineExceededReported(t *testing.T) {
	e := NewEngine()
	chain(e)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	e.SetCancelPollInterval(16)
	e.Schedule(100, cancel)
	e.RunUntil(Day)
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("Err = %v", e.Err())
	}
	// Re-arming with a live context clears the recorded error.
	e.SetContext(context.TODO())
	if e.Err() != nil {
		t.Fatalf("Err survived SetContext: %v", e.Err())
	}
}
