package fleet

import (
	"fmt"
	"math"
	"sync"

	"spothost/internal/tpcw"
)

// Planner converts an offered load into a target replica count — the
// SLO-driven half of autoscaling. Implementations must be deterministic
// pure functions of the load and safe for concurrent use (one Planner is
// shared across parallel simulation cells).
type Planner interface {
	Replicas(load float64) int
}

// LinearPlanner is the simplest capacity model: one replica per
// PerReplica units of load, rounded up. Useful for tests and for fleets
// whose per-replica capacity is known out of band.
type LinearPlanner struct {
	// PerReplica is the load one replica can absorb.
	PerReplica float64
}

// Replicas implements Planner.
func (p LinearPlanner) Replicas(load float64) int {
	if p.PerReplica <= 0 || load <= 0 {
		return 1
	}
	n := int(math.Ceil(load / p.PerReplica))
	if n < 1 {
		n = 1
	}
	return n
}

// TPCWPlanner sizes the fleet with the Section-6 queueing model: the
// target replica count for a load is the smallest count whose simulated
// mean response time meets TargetMs (tpcw.PlanCapacity). Loads are
// quantized up to a grid and plans are memoized, so a month-long
// controller run triggers only a handful of queueing simulations.
type TPCWPlanner struct {
	cfg         tpcw.Config
	targetMs    float64
	maxReplicas int
	quantum     float64

	mu   sync.Mutex
	memo map[int]int
}

// NewTPCWPlanner builds a planner over the base workload config (EBs is
// overridden per lookup). quantum is the load grid in EBs; a non-positive
// value means 8.
func NewTPCWPlanner(cfg tpcw.Config, targetMs float64, maxReplicas int, quantum float64) (*TPCWPlanner, error) {
	if targetMs <= 0 {
		return nil, fmt.Errorf("fleet: response-time target must be positive, got %v", targetMs)
	}
	if maxReplicas <= 0 {
		return nil, fmt.Errorf("fleet: maxReplicas must be positive")
	}
	if quantum <= 0 {
		quantum = 8
	}
	probe := cfg
	probe.EBs = 1
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return &TPCWPlanner{
		cfg:         cfg,
		targetMs:    targetMs,
		maxReplicas: maxReplicas,
		quantum:     quantum,
		memo:        map[int]int{},
	}, nil
}

// Replicas implements Planner: the plan for the load rounded up to the
// quantization grid. When even maxReplicas misses the target the planner
// returns maxReplicas (degraded but maximal capacity).
func (p *TPCWPlanner) Replicas(load float64) int {
	ebs := int(math.Ceil(load/p.quantum)) * int(p.quantum)
	if ebs < 1 {
		ebs = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.memo[ebs]; ok {
		return n
	}
	cfg := p.cfg
	cfg.EBs = ebs
	plan, err := tpcw.PlanCapacity(cfg, p.targetMs, p.maxReplicas)
	n := p.maxReplicas
	if err == nil {
		n = plan.Replicas
	}
	p.memo[ebs] = n
	return n
}
