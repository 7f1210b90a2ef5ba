package sweep

import (
	"reflect"
	"testing"

	"spothost/internal/market"
)

var testHome = market.ID{Region: "us-east-1a", Type: "small"}

func TestParseGrid(t *testing.T) {
	axes, err := ParseGrid("bid=1.5,2, 3;tau= 1,30")
	if err != nil {
		t.Fatal(err)
	}
	want := []Axis{
		{Knob: "bid", Values: []float64{1.5, 2, 3}},
		{Knob: "tau", Values: []float64{1, 30}},
	}
	if !reflect.DeepEqual(axes, want) {
		t.Fatalf("axes = %+v, want %+v", axes, want)
	}

	for _, bad := range []string{
		"",                 // empty
		"bid",              // no values
		"warp=1,2",         // unknown knob
		"bid=1,2;bid=3",    // duplicate axis
		"bid=one,two",      // unparsable value
		"bid=,,",           // all-empty values
		"=1,2",             // missing knob name
		"bid=2;lambda=x,1", // bad value on later axis
	} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted garbage", bad)
		}
	}
}

func TestNewPlanCrossProduct(t *testing.T) {
	plan, err := NewPlan([]Axis{
		{Knob: KnobBid, Values: []float64{1.5, 2}},
		{Knob: KnobTau, Values: []float64{1, 3}},
	}, testHome, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantVals := [][]float64{{1.5, 1}, {1.5, 3}, {2, 1}, {2, 3}}
	if len(plan.Points) != len(wantVals) {
		t.Fatalf("got %d points, want %d", len(plan.Points), len(wantVals))
	}
	for i, pt := range plan.Points {
		if !reflect.DeepEqual(pt.Values, wantVals[i]) {
			t.Errorf("point %d values %v, want %v", i, pt.Values, wantVals[i])
		}
		if got := pt.Config.BidMultiple; got != wantVals[i][0] {
			t.Errorf("point %d BidMultiple %v, want %v", i, got, wantVals[i][0])
		}
		if got := pt.Config.VMParams.CheckpointBound; got != wantVals[i][1] {
			t.Errorf("point %d CheckpointBound %v, want %v", i, got, wantVals[i][1])
		}
	}
	if plan.WarmAxis != 0 {
		t.Fatalf("WarmAxis = %d, want 0 (bid)", plan.WarmAxis)
	}
	// Families group by the non-warm (tau) value, members sorted by bid.
	wantFams := [][]int{{0, 2}, {1, 3}}
	if len(plan.Families) != 2 {
		t.Fatalf("families = %+v, want members %v", plan.Families, wantFams)
	}
	for i, f := range plan.Families {
		if !reflect.DeepEqual(f.Members, wantFams[i]) {
			t.Errorf("family %d members %v, want %v", i, f.Members, wantFams[i])
		}
	}
}

func TestNewPlanWarmAxisSelection(t *testing.T) {
	// The certifiable axis with the most values wins.
	plan, err := NewPlan([]Axis{
		{Knob: KnobBid, Values: []float64{2, 4}},
		{Knob: KnobHysteresis, Values: []float64{0, 0.05, 0.4}},
	}, testHome, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WarmAxis != 1 {
		t.Fatalf("WarmAxis = %d, want 1 (hysteresis has more values)", plan.WarmAxis)
	}

	// With no certifiable axis, a forkable one (tau) becomes the warm
	// axis: a fork-enabled runner can still resume siblings mid-horizon.
	plan, err = NewPlan([]Axis{{Knob: KnobTau, Values: []float64{1, 3, 10}}}, testHome, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WarmAxis != 0 {
		t.Fatalf("WarmAxis = %d, want 0 (tau is forkable)", plan.WarmAxis)
	}
	if len(plan.Families) != 1 || len(plan.Families[0].Members) != 3 {
		t.Fatalf("families = %+v, want one tau family of 3", plan.Families)
	}

	// Grids with neither degrade to singleton families.
	plan, err = NewPlan([]Axis{{Knob: KnobLambda, Values: []float64{0, 0.5, 1}}}, testHome, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WarmAxis != -1 {
		t.Fatalf("WarmAxis = %d, want -1", plan.WarmAxis)
	}
	if len(plan.Families) != 3 {
		t.Fatalf("got %d families, want 3 singletons", len(plan.Families))
	}

	// Invalid specs are rejected.
	if _, err := NewPlan(nil, testHome, 0); err == nil {
		t.Error("NewPlan accepted an empty grid")
	}
	if _, err := NewPlan([]Axis{{Knob: "warp", Values: []float64{1}}}, testHome, 0); err == nil {
		t.Error("NewPlan accepted an unknown knob")
	}
	if _, err := NewPlan([]Axis{
		{Knob: KnobBid, Values: []float64{2}},
		{Knob: KnobBid, Values: []float64{3}},
	}, testHome, 0); err == nil {
		t.Error("NewPlan accepted a duplicate axis")
	}
}

func TestBuildConfigShapes(t *testing.T) {
	// bid/tau alone keep the single-market shape.
	cfg, err := BuildConfig(testHome, 0, []Setting{{KnobBid, 3}, {KnobTau, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Markets) != 1 || cfg.Markets[0] != testHome {
		t.Fatalf("single-knob markets = %v", cfg.Markets)
	}
	if cfg.BidMultiple != 3 || cfg.VMParams.CheckpointBound != 10 {
		t.Fatalf("knobs not applied: %+v", cfg)
	}

	// Any hysteresis/lambda setting switches to the multi-market fleet.
	cfg, err = BuildConfig(testHome, 0, []Setting{{KnobBid, 2}, {KnobHysteresis, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Markets) != len(market.DefaultTypes()) {
		t.Fatalf("multi-market count = %d, want %d", len(cfg.Markets), len(market.DefaultTypes()))
	}
	if cfg.Service.Count != 4 {
		t.Fatalf("default fleet = %d, want 4", cfg.Service.Count)
	}
	if cfg.Hysteresis != 0.1 || cfg.BidMultiple != 2 {
		t.Fatalf("knobs not applied: %+v", cfg)
	}

	cfg, err = BuildConfig(testHome, 7, []Setting{{KnobLambda, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Service.Count != 7 {
		t.Fatalf("fleet = %d, want 7", cfg.Service.Count)
	}
	if cfg.StabilityPenalty != 0.5 {
		t.Fatalf("lambda not applied: %+v", cfg)
	}

	if _, err := BuildConfig(testHome, 0, []Setting{{"warp", 1}}); err == nil {
		t.Error("BuildConfig accepted an unknown knob")
	}
	// Invalid knob values fail config validation rather than slipping through.
	if _, err := BuildConfig(testHome, 0, []Setting{{KnobBid, 0.5}}); err == nil {
		t.Error("BuildConfig accepted a proactive bid multiple below 1")
	}
}
