package fleet

import (
	"math"

	"spothost/internal/market"
)

// Candidate is one spot market's standing at a placement decision. The
// controller builds the slice, sorted by market ID and filtered down to
// markets whose current spot price does not exceed the fleet's bid (a
// request there would be rejected outright).
type Candidate struct {
	ID market.ID
	// Spot and OnDemand are the market's current prices.
	Spot     float64
	OnDemand float64
	// Vol is the exponentially-decayed price standard deviation (see
	// forecast.DecayingMoments), maintained online by the controller.
	Vol float64
	// Replicas counts the fleet's spot capacity already placed (alive or
	// allocating) in this market — replica count in legacy mode, capacity
	// units in catalog mode.
	Replicas int
	// Units and InvUnits describe the market's instance size in capacity
	// units (InvUnits = exactly 1/Units). Zero values — e.g. a Candidate
	// built by hand without them — mean the legacy one-unit world, where
	// effective prices are the raw ones.
	Units    int
	InvUnits float64
}

// eff returns the candidate's effective price: per capacity unit when the
// candidate carries size information, raw otherwise. Spot*InvUnits is
// bit-identical to Spot when InvUnits is 1, so legacy comparisons are
// unchanged.
func (c Candidate) eff() float64 {
	if c.InvUnits > 0 {
		return c.Spot * c.InvUnits
	}
	return c.Spot
}

// Strategy chooses the spot market for the next replica. Implementations
// must be deterministic pure functions of their inputs: the controller
// relies on that for byte-identical parallel-vs-serial experiment output.
// ok=false means no candidate is acceptable and the controller should fall
// back to an on-demand replica.
type Strategy interface {
	// Name labels the strategy in reports.
	Name() string
	// Pick selects a market from cands (sorted by ID, never empty) for a
	// fleet whose current capacity target is target — a replica count in
	// legacy mode, capacity units in catalog mode (the controller passes
	// target x anchor units; Candidate.Replicas is measured the same way).
	Pick(cands []Candidate, target int) (market.ID, bool)
}

// LowestPrice is the paper's greedy rule lifted to fleets: every replica
// goes to the currently cheapest spot market. It concentrates the whole
// fleet in one market, so a single price spike there takes every replica
// down at once — the failure mode Diversified exists to cap.
type LowestPrice struct{}

// Name implements Strategy.
func (LowestPrice) Name() string { return "lowest-price" }

// Pick implements Strategy: cheapest current effective (per-unit) spot
// price, ties broken by the candidates' ID order.
func (LowestPrice) Pick(cands []Candidate, _ int) (market.ID, bool) {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].eff() < cands[best].eff() {
			best = i
		}
	}
	return cands[best].ID, true
}

// Diversified caps the fraction of the fleet any single spot market may
// host (AutoSpotting-style allocation): within the cap it places like
// LowestPrice, and when every market is at its cap it falls back to the
// least-occupied market. Capping trades a little cost for bounded blast
// radius — a revocation spike in one market can only take out about
// MaxShare of the fleet.
type Diversified struct {
	// MaxShare is the per-market replica cap as a fraction of the target
	// (0 < MaxShare <= 1). Zero means DefaultMaxShare.
	MaxShare float64
}

// DefaultMaxShare caps one market at roughly a third of the fleet.
const DefaultMaxShare = 0.34

// Name implements Strategy.
func (Diversified) Name() string { return "diversified" }

// Pick implements Strategy.
func (d Diversified) Pick(cands []Candidate, target int) (market.ID, bool) {
	share := d.MaxShare
	if share <= 0 || share > 1 {
		share = DefaultMaxShare
	}
	limit := int(math.Ceil(share * float64(target)))
	if limit < 1 {
		limit = 1
	}
	best := -1
	for i, c := range cands {
		if c.Replicas >= limit {
			continue
		}
		if best < 0 || c.eff() < cands[best].eff() {
			best = i
		}
	}
	if best >= 0 {
		return cands[best].ID, true
	}
	// Every market is at its cap (target exceeds cap x markets): place in
	// the least-occupied one, cheapest first on ties, to stay as spread
	// out as possible.
	best = 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Replicas < cands[best].Replicas ||
			(cands[i].Replicas == cands[best].Replicas && cands[i].eff() < cands[best].eff()) {
			best = i
		}
	}
	return cands[best].ID, true
}

// StabilityOptimized ranks markets by current price plus Lambda times
// their decayed price volatility (forecast.Score): a cheap-but-jumpy
// market loses to a slightly pricier stable one. Lambda = 0 degenerates to
// LowestPrice.
type StabilityOptimized struct {
	// Lambda weights the volatility penalty. Zero means DefaultLambda.
	Lambda float64
}

// DefaultLambda is the volatility weight used when Lambda is unset; one
// standard deviation counts like one dollar of price.
const DefaultLambda = 1.0

// Name implements Strategy.
func (StabilityOptimized) Name() string { return "stability" }

// Pick implements Strategy.
func (s StabilityOptimized) Pick(cands []Candidate, _ int) (market.ID, bool) {
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	best := 0
	bestScore := score(cands[0], lambda)
	for i := 1; i < len(cands); i++ {
		if sc := score(cands[i], lambda); sc < bestScore {
			best, bestScore = i, sc
		}
	}
	return cands[best].ID, true
}

func score(c Candidate, lambda float64) float64 {
	m := c.InvUnits
	if m == 0 {
		m = 1
	}
	return (c.Spot + lambda*c.Vol) * m
}

// StrategyFor returns the named strategy with its default parameters:
// "lowest-price", "diversified" or "stability". ok=false for unknown
// names.
func StrategyFor(name string) (Strategy, bool) {
	switch name {
	case "lowest-price", "lowest", "cheapest":
		return LowestPrice{}, true
	case "diversified", "capped":
		return Diversified{}, true
	case "stability", "stability-optimized", "stable":
		return StabilityOptimized{}, true
	}
	return nil, false
}

// Strategies returns the three built-in strategies in report order.
func Strategies() []Strategy {
	return []Strategy{LowestPrice{}, Diversified{}, StabilityOptimized{}}
}
