package main

// Host-speed calibration. The benchmark runs on a few cores of a shared
// host whose speed for branchy, map-heavy Go code drifts by a fifth or
// more over minutes as neighbours load the sibling hardware threads; a
// process's CPU time drifts with it, so CPU time does not help. A fixed
// reference kernel, run on every worker at once between timed samples,
// measures that drift. It touches none of the program's code, so a
// change to the program moves the workload's times and not the kernel's.
//
// The JSON metrics report times at the reference speed: a time is
// multiplied by calibNominalMS / (the median kernel time), and a rate
// divided by it. That cancels host drift between runs and keeps the ratio
// between two commits. The batch workloads sample the kernel between
// their timed batches. serve samples it only in set-up, just before the
// load, with the server idle: during the load the kernel would measure
// its contention with the server, and samples taken after the load
// tracked the latencies worse (README.md). The raw figures print above
// the JSON line.

import (
	"sort"
	"sync"
	"time"
)

// calibNominalMS is the reference kernel time the metrics are scaled to,
// close to its median on a 2-vCPU Xeon guest, so scaled figures read as
// milliseconds and seconds there.
const calibNominalMS = 4.0

// calibRec is the reference kernel's record type.
type calibRec struct {
	k int64
	v float64
}

// calibKernel is the reference work: xorshift-keyed map updates, a
// filtered append and a sort, the mix of hashing, branching and
// allocation the simulators run. It returns a value derived from all of
// it so the compiler keeps the work.
func calibKernel() float64 {
	m := make(map[int64]int, 1024)
	rs := make([]calibRec, 0, 8192)
	x := uint64(88172645463325252)
	for i := 0; i < 60000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int64(x % 3000)
		m[k]++
		if m[k]%3 == 0 && len(rs) < cap(rs) {
			rs = append(rs, calibRec{k, float64(x%1000) / 7})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].v < rs[j].v })
	return float64(len(m)) + rs[0].v
}

// hostCalib collects kernel timings over one phase of a run. It is used
// from one goroutine at a time.
type hostCalib struct {
	workers int
	samples []float64 // ms, one per sample call
	sink    float64
}

// sample runs the kernel reps times on each of workers goroutines at once
// and records the median kernel time.
func (c *hostCalib) sample(reps int) {
	var mu sync.Mutex
	var times []float64
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				v := calibKernel()
				d := ms(time.Since(t0))
				mu.Lock()
				times = append(times, d)
				c.sink += v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c.samples = append(c.samples, median(times))
}

// slowdown is how much slower than the reference the host ran: the
// median kernel time over calibNominalMS.
func (c *hostCalib) slowdown() float64 { return median(c.samples) / calibNominalMS }
