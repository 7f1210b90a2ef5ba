package runpool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapCtxMatchesMap checks MapCtx under a background context returns
// exactly what a serial loop over the items does.
func TestMapCtxMatchesMap(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	sq := func(i, v int) (int, error) { return v*v + i, nil }
	want := make([]int, len(items))
	for i, v := range items {
		want[i], _ = sq(i, v)
	}
	got, err := MapCtx(context.Background(), 4, items,
		func(_ context.Context, i, v int) (int, error) { return sq(i, v) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("result %d: serial=%d MapCtx=%d", i, want[i], got[i])
		}
	}
}

func TestMapCtxFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	items := make([]int, 200)
	_, err := MapCtx(context.Background(), 2, items, func(ctx context.Context, i, _ int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		// Well-behaved tasks watch their context.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the root-cause error, not a ctx.Err()", err)
	}
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatalf("all %d tasks started; expected most to be skipped after cancel", n)
	}
}

func TestMapCtxCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		<-started
		cancel()
		close(done)
	}()
	items := make([]int, 100)
	_, err := MapCtx(ctx, 2, items, func(ctx context.Context, i, _ int) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapCtxPanicCancelsAndSurfaces(t *testing.T) {
	items := make([]int, 50)
	_, err := MapCtx(context.Background(), 2, items, func(ctx context.Context, i, _ int) (int, error) {
		if i == 1 {
			panic("kaboom")
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
			return i, nil
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "kaboom" {
		t.Fatalf("err = %v, want *PanicError(kaboom)", err)
	}
}

func TestMapCtxLowestIndexedRootCause(t *testing.T) {
	// Two real failures: the lower-indexed one must win regardless of
	// finish order. ready gates task 3 so task 1 is provably past the
	// skip check (inside fn) before the cancel lands.
	errA, errB := errors.New("a"), errors.New("b")
	ready := make(chan struct{})
	gate := make(chan struct{})
	_, err := MapCtx(context.Background(), 4, []int{0, 1, 2, 3},
		func(ctx context.Context, i, _ int) (int, error) {
			switch i {
			case 1:
				close(ready)
				<-gate // fails second
				return 0, errA
			case 3:
				<-ready
				defer close(gate)
				return 0, errB // fails first
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-indexed root cause %v", err, errA)
	}
}
