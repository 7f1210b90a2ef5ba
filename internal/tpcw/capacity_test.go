package tpcw

import (
	"testing"
)

func TestReplicatedValidation(t *testing.T) {
	cfg := ReplicatedConfig{Config: DefaultConfig(100, false, false, 1), Replicas: 0}
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero replicas accepted")
	}
	cfg.Replicas = 2
	cfg.EBs = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid embedded config accepted")
	}
}

func TestReplicatedSingleEqualsRun(t *testing.T) {
	base := DefaultConfig(150, false, true, 3)
	direct, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	via, err := RunReplicated(ReplicatedConfig{Config: base, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if direct.MeanResponseMs != via.MeanResponseMs || direct.Requests != via.Requests {
		t.Fatalf("1-replica path diverged: %v vs %v", direct.MeanResponseMs, via.MeanResponseMs)
	}
}

func TestReplicasRelieveSaturation(t *testing.T) {
	// 400 EBs saturate one nested CPU-bound server; four replicas should
	// bring the response time down by an order of magnitude.
	cfg := DefaultConfig(400, false, true, 5)
	one, err := RunReplicated(ReplicatedConfig{Config: cfg, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunReplicated(ReplicatedConfig{Config: cfg, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.MeanResponseMs >= one.MeanResponseMs/4 {
		t.Fatalf("4 replicas: %.0f ms vs 1 replica %.0f ms — not enough relief",
			four.MeanResponseMs, one.MeanResponseMs)
	}
	// Throughput approaches the closed-loop ceiling N/Z.
	if four.ThroughputRPS < one.ThroughputRPS {
		t.Fatalf("throughput dropped with replicas: %.1f vs %.1f",
			four.ThroughputRPS, one.ThroughputRPS)
	}
	// EB conservation: all requests still served.
	if four.Requests <= 0 {
		t.Fatal("no requests")
	}
}

func TestPlanCapacityValidation(t *testing.T) {
	cfg := DefaultConfig(100, false, false, 1)
	if _, err := PlanCapacity(cfg, 0, 4); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := PlanCapacity(cfg, 100, 0); err == nil {
		t.Fatal("zero maxReplicas accepted")
	}
}

func TestPlanCapacityFindsMinimum(t *testing.T) {
	cfg := DefaultConfig(300, false, false, 7)
	plan, err := PlanCapacity(cfg, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Fatalf("target unreachable: %+v", plan)
	}
	if plan.Replicas < 1 || plan.Replicas > 8 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.MeanResponseMs > 200 {
		t.Fatalf("met plan exceeds target: %+v", plan)
	}
	// A replica count below the plan must miss the target (minimality),
	// unless the plan already found 1.
	if plan.Replicas > 1 {
		r, err := RunReplicated(ReplicatedConfig{Config: cfg, Replicas: plan.Replicas - 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.MeanResponseMs <= 200 {
			t.Fatalf("plan not minimal: %d-1 replicas already meet the target (%.0f ms)",
				plan.Replicas, r.MeanResponseMs)
		}
	}
}

func TestPlanCapacityUnreachable(t *testing.T) {
	cfg := DefaultConfig(400, false, true, 9)
	plan, err := PlanCapacity(cfg, 1, 2) // 1 ms is impossible
	if err != nil {
		t.Fatal(err)
	}
	if plan.Met {
		t.Fatalf("1 ms target reported met: %+v", plan)
	}
	if plan.Replicas != 2 {
		t.Fatalf("unmet plan should report maxReplicas: %+v", plan)
	}
}

// TestOverheadReplicaRatio: the Section-6 capacity punchline — CPU-bound
// nested deployments need more replicas than native ones for the same
// target; I/O-bound ones do not.
func TestOverheadReplicaRatio(t *testing.T) {
	nativeP, err := PlanCapacity(DefaultConfig(400, false, false, 11), 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	nestedP, err := PlanCapacity(DefaultConfig(400, false, true, 11), 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !nativeP.Met || !nestedP.Met {
		t.Fatalf("targets unmet: %+v %+v", nativeP, nestedP)
	}
	if nestedP.Replicas <= nativeP.Replicas {
		t.Fatalf("CPU-bound nested (%d) should need more replicas than native (%d)",
			nestedP.Replicas, nativeP.Replicas)
	}
	// The ratio lands near the 1.5x CPU inflation.
	ratio := float64(nestedP.Replicas) / float64(nativeP.Replicas)
	if ratio < 1.1 || ratio > 2.5 {
		t.Fatalf("replica ratio %.2f outside the plausible band", ratio)
	}
}
