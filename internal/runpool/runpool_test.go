package runpool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering checks results come back in item order even when items
// finish out of order.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		items := make([]int, 64)
		for i := range items {
			items[i] = i
		}
		rng := rand.New(rand.NewSource(1))
		delays := make([]time.Duration, len(items))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
		}
		got, err := MapCtx(context.Background(), workers, items, func(_ context.Context, i, v int) (int, error) {
			time.Sleep(delays[i])
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapFirstError checks the reported error is the lowest-indexed
// failure, not whichever failed first on the wall clock: item 5 fails only
// once item 2 is running, and item 2 fails only after item 5 has.
func TestMapFirstError(t *testing.T) {
	twoRunning, fiveDone := make(chan struct{}), make(chan struct{})
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := MapCtx(context.Background(), 4, items, func(_ context.Context, i, v int) (int, error) {
		switch i {
		case 2:
			close(twoRunning)
			<-fiveDone
			return 0, errors.New("fail-2")
		case 5:
			<-twoRunning
			defer close(fiveDone)
			return 0, errors.New("fail-5")
		}
		return v, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("want deterministic first error fail-2, got %v", err)
	}
}

// TestMapPanicSafety checks a panicking item surfaces as *PanicError
// instead of crashing the process.
func TestMapPanicSafety(t *testing.T) {
	_, err := MapCtx(context.Background(), 2, []int{0, 1, 2}, func(_ context.Context, i, v int) (int, error) {
		if i == 1 {
			panic("boom")
		}
		return v, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic value not preserved: %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

// TestBoundedConcurrency checks MapCtx never runs more than `workers`
// items at once, including the workers=1 edge case.
func TestBoundedConcurrency(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var inFlight, peak int32
		_, err := MapCtx(context.Background(), workers, make([]struct{}, 32), func(_ context.Context, i int, _ struct{}) (int, error) {
			n := atomic.AddInt32(&inFlight, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inFlight, -1)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt32(&peak); got > int32(workers) {
			t.Fatalf("workers=%d: peak concurrency %d", workers, got)
		}
	}
}

// TestDefaultWorkers checks non-positive worker counts fall back to
// GOMAXPROCS and still work.
func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	got, err := MapCtx(context.Background(), 0, []int{1, 2, 3}, func(_ context.Context, _, v int) (int, error) { return v + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2 3 4]" {
		t.Fatalf("got %v", got)
	}
}

// TestMapEmpty checks an empty item list returns immediately.
func TestMapEmpty(t *testing.T) {
	got, err := MapCtx(context.Background(), 4, nil, func(_ context.Context, _ int, _ string) (string, error) { return "", nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestMapDeterministicAcrossWorkerCounts checks the full result set is
// identical for any worker count, which is what the experiment harness
// relies on.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		items := make([]int, 50)
		for i := range items {
			items[i] = i
		}
		got, err := MapCtx(context.Background(), workers, items, func(_ context.Context, i, v int) (int, error) {
			return v*31 + i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := run(1)
	for _, workers := range []int{2, 7, 50} {
		if fmt.Sprint(run(workers)) != fmt.Sprint(serial) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}
