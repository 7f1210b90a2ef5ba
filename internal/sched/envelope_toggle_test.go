package sched

import (
	"context"
	"reflect"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestEnvelopeToggleEquivalence is the before/after check for the envelope
// fast path: the same runs with the precomputed envelope on and off must
// produce byte-identical reports, because the envelope's first-index argmin
// is exactly the pick of the linear market scan it replaces.
func TestEnvelopeToggleEquivalence(t *testing.T) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	cfg, err := DefaultConfig(home, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := market.DefaultConfig(0)
	seeds := []int64{1, 2, 3}

	defer func() { useEnvelope = true }()
	useEnvelope = true
	fast, err := RunSeedsTracedCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, 15*sim.Day, seeds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	useEnvelope = false
	slow, err := RunSeedsTracedCtx(context.Background(), mcfg, cloud.DefaultParams(0), cfg, 15*sim.Day, seeds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if !reflect.DeepEqual(fast[i], slow[i]) {
			t.Fatalf("seed %d: envelope on/off reports differ:\n on: %+v\noff: %+v",
				seeds[i], fast[i], slow[i])
		}
	}
}
