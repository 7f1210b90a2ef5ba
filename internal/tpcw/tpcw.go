// Package tpcw simulates the paper's Section-6 system-performance study: a
// TPC-W-like multi-tiered shopping site driven by emulated browsers (EBs),
// hosted either on a native cloud VM or on a nested (Xen-Blanket) VM.
//
// The site is modelled as a closed queueing network: each EB thinks for an
// exponentially distributed period, then issues a request that visits a
// CPU station and an I/O station (both single-server FCFS queues); the
// response time is the queueing delay plus service. Nested virtualization
// inflates CPU service demand (up to the paper's 50 % worst case) and
// shaves ~2 % off I/O rates (Table 4), which reproduces the Fig. 12
// contrast: image-serving (I/O-bound) workloads run at native speed, while
// CPU-bound page generation saturates earlier on nested VMs.
package tpcw

import (
	"fmt"

	"spothost/internal/randx"
	"spothost/internal/sim"
	"spothost/internal/stats"
	"spothost/internal/vm"
)

// RequestClass is one request type of the workload mix.
type RequestClass struct {
	Name string
	// CPUms and IOms are the native mean service demands per request at
	// the CPU and I/O stations, in milliseconds.
	CPUms float64
	IOms  float64
	// Weight is the relative frequency of the class in the mix.
	Weight float64
}

// Config parameterizes one TPC-W run.
type Config struct {
	// EBs is the number of emulated browsers (the Fig. 12 x-axis).
	EBs int
	// Classes is the request mix; the paper's "ordering workload" is 50 %
	// browsing, 50 % order transactions.
	Classes []RequestClass
	// Overhead applies the nested-virtualization factors; use
	// vm.NativeOverhead() for the Amazon-VM baseline.
	Overhead vm.Overhead
	// Duration is the measured window; Warmup is discarded first.
	Duration sim.Duration
	Warmup   sim.Duration
	Seed     int64
}

// thinkTime is each EB's mean think time between a response and its next
// request (TPC-W uses ~7 s).
const thinkTime sim.Duration = 7

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.EBs <= 0:
		return fmt.Errorf("tpcw: EBs must be positive")
	case len(c.Classes) == 0:
		return fmt.Errorf("tpcw: no request classes")
	case c.Duration <= 0 || c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("tpcw: bad measurement window (duration %v, warmup %v)", c.Duration, c.Warmup)
	}
	total := 0.0
	for _, cl := range c.Classes {
		if cl.CPUms < 0 || cl.IOms < 0 || cl.Weight <= 0 {
			return fmt.Errorf("tpcw: bad class %+v", cl)
		}
		total += cl.Weight
	}
	if total <= 0 {
		return fmt.Errorf("tpcw: zero total weight")
	}
	return nil
}

// OrderingMix returns the paper's TPC-W "ordering workload": 50 % of EBs
// browse, 50 % execute order transactions. withImages selects whether the
// server also delivers embedded images (Fig. 12(a), I/O-bound) or only the
// base pages, with images served by a CDN (Fig. 12(b), CPU-bound).
func OrderingMix(withImages bool) []RequestClass {
	if withImages {
		return []RequestClass{
			{Name: "browse", CPUms: 18, IOms: 85, Weight: 0.5},
			{Name: "order", CPUms: 35, IOms: 70, Weight: 0.5},
		}
	}
	return []RequestClass{
		{Name: "browse", CPUms: 22, IOms: 8, Weight: 0.5},
		{Name: "order", CPUms: 33, IOms: 10, Weight: 0.5},
	}
}

// DefaultConfig returns a Fig. 12-style run at the given load.
func DefaultConfig(ebs int, withImages, nested bool, seed int64) Config {
	ov := vm.NativeOverhead()
	if nested {
		ov = vm.DefaultOverhead()
	}
	return Config{
		EBs:      ebs,
		Classes:  OrderingMix(withImages),
		Overhead: ov,
		Duration: 2000,
		Warmup:   400,
		Seed:     seed,
	}
}

// Result is the outcome of one run.
type Result struct {
	// MeanResponseMs is the Fig. 12 y-axis: mean end-to-end response time.
	MeanResponseMs float64
	P95ResponseMs  float64
	// ThroughputRPS is completed requests per second in the measured
	// window.
	ThroughputRPS float64
	Requests      int
	// CPUUtilization and IOUtilization are busy fractions of the two
	// stations over the measured window.
	CPUUtilization float64
	IOUtilization  float64
	// PerClassMeanMs maps class name to its mean response time.
	PerClassMeanMs map[string]float64
}

// classDemand holds one class's effective service demands in seconds,
// with virtualization overheads already applied.
type classDemand struct {
	cpu float64
	io  float64
}

// request is one in-flight page request.
type request struct {
	class     int
	cpuDemand sim.Duration
	ioDemand  sim.Duration
	start     sim.Time
}

// station is a single-server FCFS queue inside the simulation.
type station struct {
	eng       *sim.Engine
	busy      bool
	queue     []*request
	busySince sim.Time
	busyTime  sim.Duration
	demand    func(*request) sim.Duration
	done      func(*request) // downstream hop
}

func (st *station) submit(r *request) {
	st.queue = append(st.queue, r)
	if !st.busy {
		st.busy = true
		st.busySince = st.eng.Now()
		st.serveNext()
	}
}

func (st *station) serveNext() {
	r := st.queue[0]
	st.queue = st.queue[1:]
	st.eng.PostAfter(st.demand(r), func() {
		st.done(r)
		if len(st.queue) == 0 {
			st.busy = false
			st.busyTime += st.eng.Now() - st.busySince
		} else {
			st.serveNext()
		}
	})
}

func (st *station) utilization(horizon sim.Duration) float64 {
	busy := st.busyTime
	if st.busy {
		busy += st.eng.Now() - st.busySince
	}
	if horizon <= 0 {
		return 0
	}
	u := busy / horizon
	if u > 1 {
		u = 1
	}
	return u
}

// Run executes the closed-loop simulation and returns measured statistics.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	eng := sim.NewEngine()
	rng := randx.Derive(cfg.Seed, "tpcw")

	// Pre-compute effective demands per class (seconds), applying the
	// CPU inflation and I/O degradation factors.
	ioFactor := (cfg.Overhead.DiskReadFactor + cfg.Overhead.DiskWriteFactor +
		cfg.Overhead.NetworkTxFactor + cfg.Overhead.NetworkRxFactor) / 4
	demands := make([]classDemand, len(cfg.Classes))
	var cum []float64
	total := 0.0
	for i, cl := range cfg.Classes {
		demands[i] = classDemand{
			cpu: cl.CPUms / 1000 * cfg.Overhead.CPUFactor,
			io:  cl.IOms / 1000 / ioFactor,
		}
		total += cl.Weight
		cum = append(cum, total)
	}
	pick := func() int {
		u := rng.Float64() * total
		for i, c := range cum {
			if u < c {
				return i
			}
		}
		return len(cum) - 1
	}

	cpu := &station{eng: eng, demand: func(r *request) sim.Duration { return r.cpuDemand }}
	ioSt := &station{eng: eng, demand: func(r *request) sim.Duration { return r.ioDemand }}
	var responses []float64
	perClass := make([]stats.Welford, len(cfg.Classes))
	completed := 0

	newRequest := func() {
		i := pick()
		cpu.submit(&request{
			class:     i,
			cpuDemand: rng.Exp(demands[i].cpu),
			ioDemand:  rng.Exp(demands[i].io),
			start:     eng.Now(),
		})
	}
	cpu.done = func(r *request) { ioSt.submit(r) }
	ioSt.done = func(r *request) {
		now := eng.Now()
		if now >= cfg.Warmup {
			rt := (now - r.start) * 1000 // ms
			responses = append(responses, rt)
			perClass[r.class].Add(rt)
			completed++
		}
		// The EB thinks, then issues its next request.
		eng.PostAfter(rng.Exp(thinkTime), newRequest)
	}

	// Launch the EBs with staggered initial thinks.
	for i := 0; i < cfg.EBs; i++ {
		eng.PostAfter(rng.Exp(thinkTime), newRequest)
	}
	eng.RunUntil(cfg.Duration)

	window := cfg.Duration - cfg.Warmup
	res := Result{
		Requests:       completed,
		ThroughputRPS:  float64(completed) / window,
		PerClassMeanMs: map[string]float64{},
	}
	if len(responses) > 0 {
		res.MeanResponseMs = stats.Mean(responses)
		if p, err := stats.Percentile(responses, 95); err == nil {
			res.P95ResponseMs = p
		}
	}
	for i, cl := range cfg.Classes {
		if perClass[i].N() > 0 {
			res.PerClassMeanMs[cl.Name] = perClass[i].Mean()
		}
	}
	res.CPUUtilization = cpu.utilization(cfg.Duration)
	res.IOUtilization = ioSt.utilization(cfg.Duration)
	return res, nil
}
