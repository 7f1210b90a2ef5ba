package fleet

import (
	"testing"

	"spothost/internal/market"
)

func mid(region, typ string) market.ID {
	return market.ID{Region: market.Region(region), Type: market.InstanceType(typ)}
}

func TestLowestPricePicksCheapest(t *testing.T) {
	cands := []Candidate{
		{ID: mid("a", "small"), Spot: 0.05},
		{ID: mid("b", "small"), Spot: 0.02},
		{ID: mid("c", "small"), Spot: 0.04},
	}
	id, ok := LowestPrice{}.Pick(cands, 10)
	if !ok || id != mid("b", "small") {
		t.Fatalf("got %v/%v, want b/small", id, ok)
	}
}

func TestLowestPriceTieBreaksByOrder(t *testing.T) {
	cands := []Candidate{
		{ID: mid("a", "small"), Spot: 0.02},
		{ID: mid("b", "small"), Spot: 0.02},
	}
	id, _ := LowestPrice{}.Pick(cands, 1)
	if id != mid("a", "small") {
		t.Fatalf("tie should pick first candidate, got %v", id)
	}
}

func TestDiversifiedRespectsCap(t *testing.T) {
	// Target 9, DefaultMaxShare 0.34 -> cap ceil(3.06) = 4 per market.
	cands := []Candidate{
		{ID: mid("a", "small"), Spot: 0.01, Replicas: 4}, // cheapest but full
		{ID: mid("b", "small"), Spot: 0.03, Replicas: 1},
		{ID: mid("c", "small"), Spot: 0.02, Replicas: 3},
	}
	id, ok := Diversified{}.Pick(cands, 9)
	if !ok || id != mid("c", "small") {
		t.Fatalf("got %v, want c/small (cheapest under cap)", id)
	}
}

func TestDiversifiedFallsBackToLeastOccupied(t *testing.T) {
	// Every market at cap: spread to the least occupied.
	cands := []Candidate{
		{ID: mid("a", "small"), Spot: 0.01, Replicas: 5},
		{ID: mid("b", "small"), Spot: 0.03, Replicas: 4},
	}
	id, ok := Diversified{}.Pick(cands, 6) // cap = ceil(2.04) = 3
	if !ok || id != mid("b", "small") {
		t.Fatalf("got %v, want b/small (least occupied)", id)
	}
}

func TestStabilityPenalizesVolatility(t *testing.T) {
	cands := []Candidate{
		{ID: mid("a", "small"), Spot: 0.02, Vol: 0.10}, // cheap but jumpy
		{ID: mid("b", "small"), Spot: 0.04, Vol: 0.00}, // pricier, stable
	}
	id, ok := StabilityOptimized{}.Pick(cands, 3)
	if !ok || id != mid("b", "small") {
		t.Fatalf("got %v, want stable b/small", id)
	}
	// Lambda ~ 0 degenerates to lowest price.
	if a, b := score(&cands[0], 1e-9), score(&cands[1], 1e-9); !(a < b) {
		t.Fatalf("tiny lambda should rank cheapest first, scores %v vs %v", a, b)
	}
}

func TestStrategyFor(t *testing.T) {
	for _, name := range []string{"lowest-price", "diversified", "stability"} {
		s, ok := StrategyFor(name)
		if !ok || s.Name() != name {
			t.Fatalf("StrategyFor(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := StrategyFor("nope"); ok {
		t.Fatal("unknown strategy should not resolve")
	}
	if n := len(Strategies()); n != 3 {
		t.Fatalf("want 3 built-in strategies, got %d", n)
	}
}
