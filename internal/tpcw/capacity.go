package tpcw

import "fmt"

// ReplicatedConfig extends Config with horizontal scaling: Replicas
// identical servers behind a round-robin load balancer, each with its own
// CPU and I/O station. This is how Section 6's overhead turns into
// capacity planning: a nested fleet needs more replicas than a native one
// to hold the same response-time target for CPU-bound workloads.
type ReplicatedConfig struct {
	Config
	Replicas int
}

// Validate extends Config validation.
func (c ReplicatedConfig) Validate() error {
	if c.Replicas <= 0 {
		return fmt.Errorf("tpcw: Replicas must be positive, got %d", c.Replicas)
	}
	return c.Config.Validate()
}

// RunReplicated simulates the replicated deployment and returns the same
// statistics as Run (aggregated across replicas; utilizations are
// per-replica means).
func RunReplicated(cfg ReplicatedConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Replicas == 1 {
		return Run(cfg.Config)
	}
	// Round-robin at the EB level: each browser is pinned to one replica,
	// which both balances load and keeps the simulation a set of
	// independent closed subsystems we can run as one config each.
	base := cfg.EBs / cfg.Replicas
	extra := cfg.EBs % cfg.Replicas
	var agg Result
	agg.PerClassMeanMs = map[string]float64{}
	classW := map[string]float64{}
	var cpuU, ioU float64
	var weightedMean, weightedP95 float64
	for i := 0; i < cfg.Replicas; i++ {
		sub := cfg.Config
		sub.EBs = base
		if i < extra {
			sub.EBs++
		}
		if sub.EBs == 0 {
			continue
		}
		sub.Seed = cfg.Seed + int64(i)*7919
		r, err := Run(sub)
		if err != nil {
			return Result{}, err
		}
		w := float64(r.Requests)
		agg.Requests += r.Requests
		agg.ThroughputRPS += r.ThroughputRPS
		weightedMean += r.MeanResponseMs * w
		weightedP95 += r.P95ResponseMs * w
		cpuU += r.CPUUtilization
		ioU += r.IOUtilization
		for name, mean := range r.PerClassMeanMs {
			agg.PerClassMeanMs[name] += mean * w
			classW[name] += w
		}
	}
	if agg.Requests > 0 {
		agg.MeanResponseMs = weightedMean / float64(agg.Requests)
		agg.P95ResponseMs = weightedP95 / float64(agg.Requests)
	}
	for name := range agg.PerClassMeanMs {
		if classW[name] > 0 {
			agg.PerClassMeanMs[name] /= classW[name]
		}
	}
	agg.CPUUtilization = cpuU / float64(cfg.Replicas)
	agg.IOUtilization = ioU / float64(cfg.Replicas)
	return agg, nil
}

// CapacityPlan reports how many replicas a deployment needs to hold a
// mean-response-time target at a given load.
type CapacityPlan struct {
	Replicas       int
	MeanResponseMs float64
	Met            bool
}

// PlanCapacity finds the smallest replica count (up to maxReplicas) whose
// mean response time stays at or below targetMs for the given load. When
// even maxReplicas misses the target, the plan reports Met=false with the
// maxReplicas result — callers decide whether to scale the budget or relax
// the SLA.
func PlanCapacity(cfg Config, targetMs float64, maxReplicas int) (CapacityPlan, error) {
	if targetMs <= 0 {
		return CapacityPlan{}, fmt.Errorf("tpcw: target must be positive, got %v", targetMs)
	}
	if maxReplicas <= 0 {
		return CapacityPlan{}, fmt.Errorf("tpcw: maxReplicas must be positive")
	}
	var last CapacityPlan
	for n := 1; n <= maxReplicas; n++ {
		r, err := RunReplicated(ReplicatedConfig{Config: cfg, Replicas: n})
		if err != nil {
			return CapacityPlan{}, err
		}
		last = CapacityPlan{Replicas: n, MeanResponseMs: r.MeanResponseMs}
		if r.MeanResponseMs <= targetMs {
			last.Met = true
			return last, nil
		}
	}
	return last, nil
}
