package tpcw

import (
	"math"
	"testing"

	"spothost/internal/vm"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(100, true, false, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.EBs = 0 },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Warmup = c.Duration },
		func(c *Config) { c.Classes = []RequestClass{{Name: "x", CPUms: -1, Weight: 1}} },
		func(c *Config) { c.Classes = []RequestClass{{Name: "x", CPUms: 1, Weight: 0}} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(100, true, false, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLightLoadResponseNearServiceDemand(t *testing.T) {
	// A single EB never queues: mean response ~ sum of mean demands.
	cfg := DefaultConfig(1, false, false, 1)
	cfg.Duration = 20000
	cfg.Warmup = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mix demand: browse 30 ms, order 43 ms -> ~36.5 ms mean.
	if res.MeanResponseMs < 25 || res.MeanResponseMs > 50 {
		t.Fatalf("light-load response = %.1f ms, want ~36 ms", res.MeanResponseMs)
	}
	if res.CPUUtilization > 0.05 {
		t.Fatalf("single EB CPU utilization = %.3f", res.CPUUtilization)
	}
}

func TestResponseTimeMonotoneInLoad(t *testing.T) {
	var prev float64
	for i, ebs := range []int{50, 200, 400} {
		res, err := Run(DefaultConfig(ebs, false, false, 7))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MeanResponseMs < prev*0.8 {
			t.Fatalf("response dropped with load: %d EBs -> %.0f ms (prev %.0f)",
				ebs, res.MeanResponseMs, prev)
		}
		prev = res.MeanResponseMs
	}
}

// TestFig12aIOBoundParity: when browsers fetch images, the workload is
// I/O-bound and nested VMs perform like native ones.
func TestFig12aIOBoundParity(t *testing.T) {
	for _, ebs := range []int{100, 300} {
		nat, err := Run(DefaultConfig(ebs, true, false, 3))
		if err != nil {
			t.Fatal(err)
		}
		nst, err := Run(DefaultConfig(ebs, true, true, 3))
		if err != nil {
			t.Fatal(err)
		}
		ratio := nst.MeanResponseMs / nat.MeanResponseMs
		if ratio > 1.25 {
			t.Fatalf("%d EBs: nested/native response ratio = %.2f, want near parity", ebs, ratio)
		}
		if nat.IOUtilization < nat.CPUUtilization {
			t.Fatalf("image workload should be I/O-bound: io=%.2f cpu=%.2f",
				nat.IOUtilization, nat.CPUUtilization)
		}
	}
}

// TestFig12bCPUBoundOverhead: without images the workload is CPU-bound and
// the nested VM saturates earlier, costing up to ~50 % (and under heavy
// saturation more) in response time.
func TestFig12bCPUBoundOverhead(t *testing.T) {
	nat, err := Run(DefaultConfig(400, false, false, 5))
	if err != nil {
		t.Fatal(err)
	}
	nst, err := Run(DefaultConfig(400, false, true, 5))
	if err != nil {
		t.Fatal(err)
	}
	if nst.MeanResponseMs < nat.MeanResponseMs*1.3 {
		t.Fatalf("nested %.0f ms vs native %.0f ms: expected substantial CPU overhead",
			nst.MeanResponseMs, nat.MeanResponseMs)
	}
	if nat.CPUUtilization < nat.IOUtilization {
		t.Fatalf("no-image workload should be CPU-bound: cpu=%.2f io=%.2f",
			nat.CPUUtilization, nat.IOUtilization)
	}
	// Saturated native system at 400 EBs lands in the multi-second band
	// like Fig. 12(b).
	if nat.MeanResponseMs < 500 || nat.MeanResponseMs > 15000 {
		t.Fatalf("native 400-EB response = %.0f ms, want saturated seconds-scale", nat.MeanResponseMs)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(DefaultConfig(150, true, true, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(150, true, true, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponseMs != b.MeanResponseMs || a.Requests != b.Requests {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestThroughputConservation(t *testing.T) {
	res, err := Run(DefaultConfig(100, true, false, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Interactive response-time law sanity: X <= N / Z and X > 0.
	if res.ThroughputRPS <= 0 {
		t.Fatal("no throughput")
	}
	if res.ThroughputRPS > float64(100)/7*1.2 {
		t.Fatalf("throughput %.1f exceeds closed-loop bound", res.ThroughputRPS)
	}
	if res.Requests <= 0 || res.P95ResponseMs < res.MeanResponseMs*0.5 {
		t.Fatalf("suspicious stats: %+v", res)
	}
	if len(res.PerClassMeanMs) != 2 {
		t.Fatalf("per-class stats missing: %+v", res.PerClassMeanMs)
	}
}

func TestMeasureIOTable4(t *testing.T) {
	base := NativeBaselines()
	nested := MeasureIO(base, vm.DefaultOverhead(), 0, 1)
	// Network within a hair of native; disk ~2 % degraded (Table 4).
	deg := DegradationPercent(base, nested)
	if deg[0] > 1 || deg[1] > 1.5 {
		t.Fatalf("network degradation too high: %v", deg)
	}
	if deg[2] < 1 || deg[2] > 4 || deg[3] < 1 || deg[3] > 4 {
		t.Fatalf("disk degradation outside ~2%% band: %v", deg)
	}
	// Native measured under identity overhead is exactly the baseline.
	same := MeasureIO(base, vm.NativeOverhead(), 0, 1)
	if same != base {
		t.Fatalf("identity overhead changed rates: %+v", same)
	}
}

func TestMeasureIONoise(t *testing.T) {
	base := NativeBaselines()
	a := MeasureIO(base, vm.DefaultOverhead(), 0.02, 1)
	b := MeasureIO(base, vm.DefaultOverhead(), 0.02, 2)
	if a == b {
		t.Fatal("different seeds produced identical noisy measurements")
	}
	if math.Abs(a.NetworkTx-304) > 304*0.15 {
		t.Fatalf("noise too large: %+v", a)
	}
}

func TestDegradationPercentZeroBase(t *testing.T) {
	d := DegradationPercent(IOMicrobench{}, IOMicrobench{NetworkTx: 5})
	if d[0] != 0 {
		t.Fatalf("zero base should yield 0, got %v", d)
	}
}
