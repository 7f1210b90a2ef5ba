// Package fleet extends the paper's single-VM scheduler to the ROADMAP
// north star: N replicas behind a load balancer. A Controller maintains a
// demand-driven target replica count by spreading spot instances across
// the markets of a market.Set (per an allocation Strategy), falling back
// to on-demand capacity when no spot market is acceptable, and draining
// on-demand replicas back onto spot once a cheap market recovers
// (AutoSpotting-style reverse replacement). A mass revocation in one
// market shows up as a partial capacity shortfall instead of the
// single-VM binary up/down.
package fleet

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/forecast"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Defaults for Config fields left zero.
const (
	DefaultTick              = 5 * sim.Minute
	DefaultBidMultiple       = 1.5
	DefaultMaxReplicas       = 64
	DefaultReverseHysteresis = 0.15
)

// Fixed controller limits.
const (
	// minReplicas is the floor of the planner's target.
	minReplicas = 1
	// rebalanceHysteresis is the per-unit discount another market must
	// offer below a live spot replica's current price before the
	// controller migrates it there (mixed-size catalog mode only). It is
	// deliberately much stiffer than the reverse margin: a spot-to-spot
	// move pays a full boot overlap, and a market that undercuts by less
	// rarely stays cheap long enough to recoup it.
	rebalanceHysteresis float64 = 0.45
	// maxReversePerTick bounds the make-before-break drains (reverse
	// replacement, rebalance, downsize) each started per tick.
	maxReversePerTick = 1
)

// Config parameterizes a fleet controller.
type Config struct {
	// Markets are the candidate spot markets. Empty means every market of
	// the provider's set.
	Markets []market.ID
	// Strategy picks the spot market for each new replica.
	Strategy Strategy
	// Demand is the offered-load trace driving autoscaling.
	Demand Demand
	// Planner converts the load into a target replica count.
	Planner Planner
	// Tick is the autoscaling period. Zero means DefaultTick.
	Tick sim.Duration
	// BidMultiple sets each spot bid to BidMultiple x the market's
	// on-demand price (clamped to the provider's bid cap). Zero means
	// DefaultBidMultiple.
	BidMultiple float64
	// MaxReplicas caps the planner's target. Zero means
	// DefaultMaxReplicas.
	MaxReplicas int
	// ReverseHysteresis is the discount a spot market must offer below an
	// on-demand replica's price before the controller drains that replica
	// onto spot. Zero means DefaultReverseHysteresis; negative disables
	// reverse replacement.
	ReverseHysteresis float64
	// Catalog, when set, turns on heterogeneous placement: replicas may
	// be any catalog type at least as powerful as AnchorType
	// (catalog.Compatible), the Planner's target and all capacity
	// accounting are measured in capacity units (target x anchor units,
	// filled by mixed-size replicas) and strategies compare per-unit
	// prices. Nil preserves the legacy one-abstract-server-per-market
	// behaviour bit-for-bit.
	Catalog *catalog.Catalog
	// AnchorType is the reference instance type capacity is planned in:
	// the Planner's replica count is worth AnchorType's units each, and
	// every candidate market must be at least as powerful. Required with
	// Catalog; must not be set without it.
	AnchorType market.InstanceType
}

func (cfg Config) withDefaults() Config {
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.BidMultiple <= 0 {
		cfg.BidMultiple = DefaultBidMultiple
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = DefaultMaxReplicas
	}
	if cfg.ReverseHysteresis == 0 {
		cfg.ReverseHysteresis = DefaultReverseHysteresis
	}
	return cfg
}

// replica is one slot of the fleet: an instance plus its control state.
type replica struct {
	in   *cloud.Instance
	spot bool
	// doomed marks a spot replica that received a revocation warning; it
	// still serves until the deadline but no longer counts as durable
	// capacity, so a replacement launches immediately.
	doomed bool
	// replaces links a reverse-replacement spot replica to the on-demand
	// replica it will retire once booted; draining marks that on-demand
	// replica. A pending replacement does not count as capacity (its
	// draining partner still serves).
	replaces *replica
	draining bool
	// rebal marks a draining spot replica being migrated to a cheaper
	// market (as opposed to a downsize shrinking it), for accounting.
	rebal bool
	// span is the replica's open launch span when tracing is on (0
	// otherwise): request → running, or → never-granted.
	span trace.SpanID
	// units is the replica's capacity in anchor units (always 1 in
	// legacy mode); invUnits is the exact reciprocal used to normalize
	// its market prices.
	units    int
	invUnits float64
	// mi is the replica's market, as an index into Controller.markets.
	mi int
}

// Controller is the fleet controller. All methods must be called from
// inside the owning engine's event loop; construct with New and call
// Start before running the engine.
type Controller struct {
	eng     *sim.Engine
	prov    *cloud.Provider
	cfg     Config
	markets []market.ID // sorted by ID

	started  bool
	target   int        // anchor-replica target from the Planner, clamped
	replicas []*replica // launch order == ascending instance ID

	// Capacity-unit view of the fleet. In legacy mode (no catalog) every
	// market and replica is worth exactly one unit, so targetUnits ==
	// target and all unit arithmetic multiplies by 1.0 — bit-identical
	// to the pre-catalog controller.
	anchorUnits int
	targetUnits int
	mixed       bool // any configured market bigger than one unit

	// Per-market state, indexed like c.markets and built at construction,
	// so the per-tick and per-candidate paths index instead of hashing a
	// market.ID. mktIdx maps back from an ID for the per-launch paths.
	mktUnits []int            // the type's capacity units
	mktInv   []float64        // exact 1/units
	mktBid   []float64        // the fleet's spot bid; see New
	mktOD    []float64        // fixed on-demand price
	mktPrice []*market.Cursor // spot price source, same trace as the provider's
	mktIdx   map[market.ID]int

	// mktVol tracks each market's price volatility, only for strategies
	// that read Candidate.Vol (see Start); nil otherwise.
	mktVol []forecast.Volatility

	// Hot-path caches: the shared cheapest-market envelope (only for
	// strategies whose pick it can reproduce exactly), the persistent tick
	// closure, and the cheapest on-demand market — precomputed at
	// construction since on-demand prices and the catalog are both fixed
	// for the controller's lifetime (a new catalog means a new
	// controller).
	envCur *market.EnvelopeCursor
	tickFn func()
	odBest int // index into c.markets

	// Tick-path scratch, reused across calls so building the strategy
	// input allocates nothing after the first tick (the candidate slice
	// scales with the catalog: 40 markets x every tick adds up). The
	// slice returned by candidates is valid only until the next call;
	// no caller retains it.
	candScratch []Candidate
	occScratch  []int // per c.markets index
	// poolScratch backs surplusPool's result, valid until the next call.
	// Callers finish with it before anything rebuilds it: the trim loop's
	// retire ends in a user termination, whose OnTerminated is
	// bookkeeping only.
	poolScratch []*replica

	// floor lets rebalance skip scans that cannot trigger a move; built
	// in mixed-size mode only.
	floor hourFloor

	// Time-integrated accounting, advanced before every state change.
	lastAccounted sim.Time
	acc           accrual

	// Counters.
	launches     int
	odFallbacks  int
	reverses     int
	downsizes    int
	rebalances   int
	lost         int
	neverGranted int
	scaleDowns   int
	peakTarget   int

	lossAt     map[sim.Time]int
	occupancy  []OccupancyPoint
	lastSample sim.Time

	// Decision-ledger scratch: the specialized launch paths (reverse,
	// rebalance, downsize, consolidation) stash the hysteresis margin or
	// note they cleared just before requesting capacity, and the request
	// records and clears it. Only ever written when telemetry is attached,
	// so the disabled path never touches these fields.
	obsMargin float64
	obsNote   string
}

// New validates the config and builds a controller over the provider.
func New(prov *cloud.Provider, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Strategy == nil:
		return nil, fmt.Errorf("fleet: nil strategy")
	case cfg.Demand == nil:
		return nil, fmt.Errorf("fleet: nil demand")
	case cfg.Planner == nil:
		return nil, fmt.Errorf("fleet: nil planner")
	}
	var anchor catalog.Entry
	if cfg.Catalog != nil {
		if cfg.AnchorType == "" {
			return nil, fmt.Errorf("fleet: Catalog requires AnchorType")
		}
		var ok bool
		if anchor, ok = cfg.Catalog.Lookup(cfg.AnchorType); !ok {
			return nil, fmt.Errorf("fleet: unknown anchor instance type %q", cfg.AnchorType)
		}
	} else if cfg.AnchorType != "" {
		return nil, fmt.Errorf("fleet: AnchorType %q set without a Catalog", cfg.AnchorType)
	}
	ids := cfg.Markets
	if len(ids) == 0 {
		if cfg.Catalog != nil {
			var err error
			if ids, err = cfg.Catalog.CompatibleMarkets(prov.Markets(), cfg.AnchorType); err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
		} else {
			ids = prov.Markets().IDs()
		}
	} else if cfg.Catalog != nil {
		for _, id := range ids {
			e, ok := cfg.Catalog.Lookup(id.Type)
			if !ok {
				return nil, fmt.Errorf("fleet: market %s: unknown instance type %q", id, id.Type)
			}
			if !catalog.Compatible(anchor, e) {
				return nil, fmt.Errorf("fleet: market %s: type %q is weaker than anchor %q", id, id.Type, cfg.AnchorType)
			}
		}
	}
	sorted := append([]market.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })
	for _, id := range sorted {
		if prov.Markets().Trace(id) == nil {
			return nil, fmt.Errorf("fleet: market %s not in set", id)
		}
	}
	n := len(sorted)
	c := &Controller{
		eng:         prov.Engine(),
		prov:        prov,
		cfg:         cfg,
		markets:     sorted,
		acc:         accrual{markets: make([]MarketUsage, n)},
		lossAt:      map[sim.Time]int{},
		lastSample:  -sim.Hour,
		anchorUnits: 1,
		mktUnits:    make([]int, n),
		mktInv:      make([]float64, n),
		mktBid:      make([]float64, n),
		mktOD:       make([]float64, n),
		mktPrice:    make([]*market.Cursor, n),
		mktIdx:      make(map[market.ID]int, n),
		candScratch: make([]Candidate, 0, n),
		occScratch:  make([]int, n),
	}
	for i, id := range sorted {
		// The bid is BidMultiple x on-demand, clamped to the provider's cap.
		od := prov.OnDemandPrice(id)
		c.mktOD[i] = od
		c.mktBid[i] = cfg.BidMultiple * od
		if max := prov.MaxBid(id); c.mktBid[i] > max {
			c.mktBid[i] = max
		}
		c.mktPrice[i] = market.NewCursor(prov.Markets().Trace(id))
		c.mktUnits[i], c.mktInv[i] = 1, 1
		if cfg.Catalog != nil {
			e, _ := cfg.Catalog.Lookup(id.Type) // validated above
			c.mktUnits[i], c.mktInv[i] = e.Units, e.InvUnits()
			if e.Units != 1 {
				c.mixed = true
			}
		}
		c.mktIdx[id] = i
	}
	if cfg.Catalog != nil {
		c.anchorUnits = anchor.Units
	}
	if c.mixed {
		traces := make([]*market.Trace, n)
		for i, id := range sorted {
			traces[i] = prov.Markets().Trace(id)
		}
		c.floor = newHourFloor(traces, c.mktUnits, c.mktInv)
	}
	c.odBest = c.computeCheapestOnDemand()
	c.tickFn = c.tick
	if useEnvelope {
		switch cfg.Strategy.(type) {
		case LowestPrice, Diversified:
			// Both place at the first-index cheapest feasible market (by
			// per-unit price in catalog mode), which the precomputed
			// envelope yields in O(1) amortized; see fastPick for the
			// exact-equivalence argument. All-ones weights pass nil so a
			// single-unit catalog shares the legacy envelope memo entry.
			var weights []float64
			if c.mixed {
				weights = c.mktInv
			}
			if env := prov.Markets().Envelope(sorted, weights); env != nil {
				c.envCur = env.Cursor()
			}
		}
	}
	return c, nil
}

// useEnvelope gates the envelope fast path in fastPick; tests flip it off
// to prove the fast path places exactly like the full candidate scan.
var useEnvelope = true

// Start primes the price statistics of strategies that read them, runs
// the first autoscaling tick at the current time and schedules the rest.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	now := c.eng.Now()
	c.lastAccounted = now
	switch c.cfg.Strategy.(type) {
	case StabilityOptimized:
		// Only this strategy reads Candidate.Vol; the others get 0.
		c.mktVol = make([]forecast.Volatility, len(c.markets))
		for i, id := range c.markets {
			c.mktVol[i] = forecast.NewVolatility(c.prov.Markets().Trace(id), now)
		}
	}
	c.tick()
}

func (c *Controller) tick() {
	now := c.eng.Now()
	c.advance(now)
	load := c.cfg.Demand.At(now)
	target := c.cfg.Planner.Replicas(load)
	if target < minReplicas {
		target = minReplicas
	}
	if target > c.cfg.MaxReplicas {
		target = c.cfg.MaxReplicas
	}
	c.target = target
	c.targetUnits = target * c.anchorUnits
	if target > c.peakTarget {
		c.peakTarget = target
	}
	c.reconcile()
	c.reverseReplace()
	c.downsize()
	c.rebalance()
	c.sampleOccupancy(now)
	c.eng.PostAfter(c.cfg.Tick, c.tickFn)
}

// spotPrice returns the current spot price of market c.markets[i].
func (c *Controller) spotPrice(i int) float64 {
	return c.mktPrice[i].PriceAt(c.eng.Now())
}

// capacityUnits sums the capacity units of replicas the controller
// treats as durable serving capacity: anything not warned of revocation
// and not a still-pending reverse replacement (whose draining partner is
// counted instead). In legacy mode every replica is one unit, so this is
// the old replica count.
func (c *Controller) capacityUnits() int {
	n := 0
	for _, r := range c.replicas {
		if r.doomed || r.replaces != nil {
			continue
		}
		n += r.units
	}
	return n
}

// spotInMarket sums in-flight spot capacity units per market index
// (pending or alive, including doomed ones — they still occupy the
// market).
func (c *Controller) spotInMarket() []int {
	out := c.occScratch
	clear(out)
	for _, r := range c.replicas {
		if r.spot {
			out[r.mi] += r.units
		}
	}
	return out
}

// allSizes is the size mask admitting every instance size; see sizeMask.
const allSizes = -1

// minSizeMask admits every size of at least min capacity units. Unit
// counts are powers of two, so a size's mask bit is the size itself.
func minSizeMask(min int) int { return ^(min - 1) }

// candidates builds the strategy input: every configured market whose
// current spot price the fleet's bid covers, sorted by market ID.
// sizeMask bounds the candidate instance size: unit counts are powers of
// two, so bit u of the mask admits u-unit markets (allSizes admits all —
// always the case in legacy mode, where every market is one unit). The
// returned slice aliases a controller-owned scratch buffer and is valid
// only until the next candidates call.
func (c *Controller) candidates(sizeMask int) []Candidate {
	now := c.eng.Now()
	occ := c.spotInMarket()
	cands := c.candScratch[:0]
	for i, id := range c.markets {
		u := c.mktUnits[i]
		if u&sizeMask == 0 {
			continue
		}
		spot := c.mktPrice[i].PriceAt(now)
		if spot > c.mktBid[i] {
			continue
		}
		var vol float64
		if c.mktVol != nil {
			vol = c.mktVol[i].Std(now)
		}
		cands = append(cands, Candidate{
			ID:       id,
			Spot:     spot,
			OnDemand: c.mktOD[i],
			Vol:      vol,
			Replicas: occ[i],
			Units:    u,
			InvUnits: c.mktInv[i],
		})
	}
	c.candScratch = cands
	return cands
}

// computeCheapestOnDemand scans the configured markets once at
// construction for the lowest on-demand price (per capacity unit in
// catalog mode; ties broken by ID order). In catalog mode, markets no
// bigger than the anchor are preferred so an on-demand fallback for a
// one-anchor deficit does not buy a many-unit box at full price; when
// every market is bigger, the cheapest per-unit one wins.
func (c *Controller) computeCheapestOnDemand() int {
	bestIdx, bestAnyIdx := -1, -1
	var bestPer, bestAnyPer float64
	for i, od := range c.mktOD {
		per := od * c.mktInv[i]
		if bestAnyIdx < 0 || per < bestAnyPer {
			bestAnyIdx, bestAnyPer = i, per
		}
		if c.mktUnits[i] <= c.anchorUnits && (bestIdx < 0 || per < bestPer) {
			bestIdx, bestPer = i, per
		}
	}
	if bestIdx < 0 {
		bestIdx = bestAnyIdx
	}
	return bestIdx
}

// fastPick resolves the strategy's placement via the precomputed envelope
// without building a candidate slice. It returns the picked market and
// its effective price (raw in legacy mode, per-unit in catalog mode).
// ok=false means the fast path cannot decide and the caller must run the
// full candidates+Pick scan. sizeMask mirrors the caller's candidate size
// bound: an argmin outside it defers to the scan.
//
// Exactness: the envelope yields the FIRST market (in the controller's
// sorted order — the same order candidates are built in) with the strictly
// minimal weighted spot price, and its weights are exactly the InvUnits
// the candidates carry, so the weighted price equals Candidate.eff
// bit-for-bit. If that market is feasible (raw price <= bid) and within
// the size bounds, it is in the filtered candidate list and every earlier
// candidate prices strictly higher, so LowestPrice.Pick returns exactly
// it; Diversified.Pick does too when it is under the per-market cap. An
// infeasible argmin (or one at its cap or outside the bounds) says
// nothing about the rest, hence the fallback.
func (c *Controller) fastPick(sizeMask int) (market.ID, float64, bool) {
	if c.envCur == nil {
		return market.ID{}, 0, false
	}
	// The envelope's candidates are c.markets, so its index is ours.
	i, price, weighted := c.envCur.AtIndex(c.eng.Now())
	if price > c.mktBid[i] || c.mktUnits[i]&sizeMask == 0 {
		return market.ID{}, 0, false
	}
	id := c.markets[i]
	switch st := c.cfg.Strategy.(type) {
	case LowestPrice:
		return id, weighted, true
	case Diversified:
		occ := 0
		for _, r := range c.replicas {
			if r.spot && r.mi == i {
				occ += r.units
			}
		}
		if occ < st.limit(c.targetUnits) {
			return id, weighted, true
		}
	}
	return market.ID{}, 0, false
}

// reconcile launches replicas to cover a capacity deficit and retires
// surplus ones. Launches prefer spot via the strategy; when no market is
// acceptable (every one spiking above the bid) the replica falls back to
// on-demand in the cheapest market.
func (c *Controller) reconcile() {
	for c.capacityUnits() < c.targetUnits {
		before := len(c.replicas)
		c.launch(nil)
		if len(c.replicas) == before {
			return // no market grantable at all; next tick retries
		}
	}
	if surplus := c.capacityUnits() - c.targetUnits; surplus > 0 {
		// In mixed mode an overshooting consolidation launch creates
		// surplus on purpose, but the replacement box takes minutes to
		// boot: retiring live victims against pending capacity would break
		// before making. Track alive durable units and defer any trim that
		// would dip below target — onRunning reconciles again when the
		// pending box boots and finishes the job.
		aliveUnits := 0
		if c.mixed {
			for _, r := range c.replicas {
				if r.doomed || r.replaces != nil || !r.in.Alive() {
					continue
				}
				aliveUnits += r.units
			}
		}
		for _, r := range c.surplusPool() {
			if surplus <= 0 {
				break
			}
			if r.units > surplus {
				continue // retiring it would undershoot the target
			}
			if c.mixed && r.in.Alive() {
				if aliveUnits-r.units < c.targetUnits {
					continue // keep serving until the pending box boots
				}
				aliveUnits -= r.units
			}
			surplus -= r.units
			c.scaleDowns++
			c.retire(r)
		}
	}
}

// launchSizeMask returns the admissible instance sizes for a fresh
// launch covering deficit units: a size fits if it is no bigger than the
// deficit, or if the overshoot it causes would be fully reclaimed by the
// surplus trim that reconcile runs right after the launch loop (greedy
// over the victim pool in price order, skipping replicas bigger than the
// remaining surplus — simulated here exactly). The second case is the
// consolidation path: a cheap big box replaces several expensive small
// ones within one reconcile pass, never stranding paid-for surplus.
func (c *Controller) launchSizeMask(deficit int) int {
	if !c.mixed {
		return allSizes
	}
	mask := 0
	var pool []*replica
	for _, u := range c.mktUnits {
		if u&mask != 0 {
			continue
		}
		if u <= deficit {
			mask |= u
			continue
		}
		if pool == nil {
			pool = c.surplusPool()
		}
		s := u - deficit
		for _, r := range pool {
			if s == 0 {
				break
			}
			if r.units <= s {
				s -= r.units
			}
		}
		if s == 0 {
			mask |= u
		}
	}
	return mask
}

// launch starts one replica. replaces, when non-nil, marks a reverse
// replacement draining that on-demand replica (the replacement must be at
// least as big, in capacity units, as what it drains). A fresh launch is
// size-bounded by launchSizeMask so overshoot is only ever transient; if
// every admissible-size market is spiking, the bound lifts — overshooting
// with a big cheap spot box beats an on-demand fallback.
func (c *Controller) launch(replaces *replica) {
	mask := allSizes
	deficit := 0
	if replaces != nil {
		// At least the drained replica's size; bigger only when the trim
		// can reclaim the overshoot (same consolidation rule as fresh
		// launches, with the drained units as the hole being filled).
		mask = minSizeMask(replaces.units) & c.launchSizeMask(replaces.units)
	} else if c.mixed {
		deficit = c.targetUnits - c.capacityUnits()
		mask = c.launchSizeMask(deficit)
	}
	id, eff, havePick := c.pickEff(mask)
	if !havePick && replaces == nil && mask != allSizes {
		// Every admissible-size market is spiking: lift the size bound —
		// overshooting with a big cheap spot box beats an on-demand
		// fallback.
		id, eff, havePick = c.pickEff(allSizes)
	}
	if havePick && replaces == nil && deficit > 0 {
		if u := c.mktUnits[c.mktIdx[id]]; u > deficit {
			gated := c.gateConsolidation(id, eff, u, deficit)
			if gated == id && c.eng.Obs() != nil {
				c.obsNote = "consolidate"
			}
			id = gated
		}
	}
	if havePick {
		class := "spot"
		if replaces != nil {
			class = "reverse"
		}
		if c.requestSpot(id, replaces, class) {
			return
		}
	}
	if replaces != nil {
		// No spot market is acceptable: nothing to drain onto.
		return
	}
	// Fall back to a non-revocable on-demand replica.
	c.requestOnDemand("on-demand")
}

// pickEff picks a market under the size mask and returns it with its
// effective (per-unit) price: the envelope fast path first, then the
// full candidate slice (required for StabilityOptimized and whenever the
// envelope's global argmin is infeasible, capped or mis-sized).
func (c *Controller) pickEff(mask int) (market.ID, float64, bool) {
	if id, eff, ok := c.fastPick(mask); ok {
		return id, eff, true
	}
	cands := c.candidates(mask)
	if len(cands) == 0 {
		return market.ID{}, 0, false
	}
	id, ok := c.cfg.Strategy.Pick(cands, c.targetUnits)
	if !ok {
		return market.ID{}, 0, false
	}
	for i := range cands {
		if cands[i].ID == id {
			return id, cands[i].eff(), true
		}
	}
	return id, 0, true
}

// reclaimCost sums the current hourly price of the replicas the surplus
// trim would greedily retire to reclaim overshoot units; exact reports
// whether the pool covers the overshoot without undershooting.
func (c *Controller) reclaimCost(overshoot int) (cost float64, exact bool) {
	s := overshoot
	for _, r := range c.surplusPool() {
		if s == 0 {
			break
		}
		if r.units <= s {
			s -= r.units
			cost += c.priceOf(r)
		}
	}
	return cost, s == 0
}

// gateConsolidation decides whether an overshooting pick (a box bigger
// than the deficit, admitted because the trim can reclaim the excess) is
// actually worth the swap: the box must undercut keeping the would-be
// victims and filling the deficit at the best right-sized rate, by the
// reverse-hysteresis margin. Marginal consolidations otherwise pay a
// whole make-before-break boot overlap for pocket change — and invite
// the downsize path to churn the fleet right back overnight.
func (c *Controller) gateConsolidation(id market.ID, eff float64, u, deficit int) market.ID {
	smallMask := 0
	for s := 1; s <= deficit; s <<= 1 {
		smallMask |= s
	}
	altID, altEff, ok := c.pickEff(smallMask)
	if !ok {
		return id // no right-sized market grantable; overshoot anyway
	}
	reclaim, exact := c.reclaimCost(u - deficit)
	if !exact {
		return id
	}
	h := c.cfg.ReverseHysteresis
	if h < 0 {
		h = 0
	}
	if eff*float64(u) < (1-h)*(reclaim+altEff*float64(deficit)) {
		return id // consolidation pays for itself
	}
	return altID
}

// requestOnDemand starts one replica in the cheapest on-demand market
// and returns it (nil on provider rejection, unreachable in practice).
// class labels the request in the decision ledger ("on-demand" fallback
// or "bridge").
func (c *Controller) requestOnDemand(class string) *replica {
	i := c.odBest
	odID := c.markets[i]
	r := &replica{units: c.mktUnits[i], invUnits: c.mktInv[i], mi: i}
	in, err := c.prov.RequestOnDemand(odID, c.callbacks(r))
	if err != nil {
		return nil // unreachable: markets were validated at construction
	}
	if o := c.eng.Obs(); o != nil {
		c.recordDecision(o, class, odID, i, c.mktOD[i], 0, "", nil)
	}
	r.in = in
	if rec := c.eng.Recorder(); rec != nil {
		r.span = rec.Begin(trace.KindLaunch, "on-demand", in.Market().String(), c.eng.Now())
	}
	c.launches++
	c.odFallbacks++
	c.replicas = append(c.replicas, r)
	return r
}

// requestSpot starts one spot replica in market id, optionally draining
// replaces once it boots. Returns false when the provider rejects the
// request.
func (c *Controller) requestSpot(id market.ID, replaces *replica, class string) bool {
	i := c.mktIdx[id]
	r := &replica{spot: true, replaces: replaces, units: c.mktUnits[i], invUnits: c.mktInv[i], mi: i}
	o := c.eng.Obs()
	margin, note := c.obsMargin, c.obsNote
	if o != nil {
		c.obsMargin, c.obsNote = 0, ""
	}
	in, err := c.prov.RequestSpot(id, c.mktBid[i], c.callbacks(r))
	if err != nil {
		return false
	}
	if o != nil {
		c.recordDecision(o, class, id, i, c.spotPrice(i), margin, note, replaces)
	}
	r.in = in
	if rec := c.eng.Recorder(); rec != nil {
		r.span = rec.Begin(trace.KindLaunch, class, in.Market().String(), c.eng.Now())
	}
	c.launches++
	c.replicas = append(c.replicas, r)
	return true
}

// priceOf returns a replica's current hourly price: the live spot price
// for spot replicas, the fixed on-demand price otherwise.
func (c *Controller) priceOf(r *replica) float64 {
	if r.spot {
		return c.spotPrice(r.mi)
	}
	return c.mktOD[r.mi]
}

// surplusPool returns the counted replicas in scale-down victim order,
// in a scratch buffer valid until the next call:
// on-demand first (they cost full price), then the most expensive spot
// per capacity unit, newest first on ties. reconcile pops greedily,
// skipping replicas bigger than the remaining surplus.
func (c *Controller) surplusPool() []*replica {
	pool := c.poolScratch[:0]
	for _, r := range c.replicas {
		if r.doomed || r.replaces != nil {
			continue
		}
		pool = append(pool, r)
	}
	slices.SortStableFunc(pool, func(a, b *replica) int {
		if a.spot != b.spot {
			if !a.spot {
				return -1 // on-demand first
			}
			return 1
		}
		pa, pb := c.priceOf(a)*a.invUnits, c.priceOf(b)*b.invUnits
		if pa != pb {
			if pa > pb {
				return -1 // most expensive first
			}
			return 1
		}
		return cmp.Compare(b.in.ID(), a.in.ID()) // newest first
	})
	c.poolScratch = pool
	return pool
}

// retire terminates a replica the controller chose to drop, along with a
// pending reverse replacement targeting it.
func (c *Controller) retire(r *replica) {
	for _, other := range c.replicas {
		if other.replaces == r {
			other.replaces = nil
			c.terminate(other)
		}
	}
	c.terminate(r)
}

// terminate releases the instance; removal from c.replicas happens in the
// synchronous OnTerminated callback.
func (c *Controller) terminate(r *replica) {
	if r.in.State() == cloud.Terminated {
		return
	}
	_ = c.prov.Terminate(r.in)
}

// reverseReplace drains up to maxReversePerTick on-demand replicas whose
// market a recovered spot market now undercuts by at least the hysteresis
// margin: a spot replacement launches first, and the on-demand replica is
// terminated only once the replacement boots.
func (c *Controller) reverseReplace() {
	if c.cfg.ReverseHysteresis < 0 {
		return
	}
	started := 0
	for _, r := range c.replicas {
		if started >= maxReversePerTick {
			return
		}
		if r.spot || r.draining || r.doomed || !r.in.Alive() {
			continue
		}
		// The replacement must carry at least the drained replica's units,
		// and prices compare per unit (raw in legacy mode — invUnits 1).
		_, pickSpot, ok := c.pickEff(minSizeMask(r.units))
		if !ok {
			return
		}
		odPrice := c.mktOD[r.mi]
		if pickSpot >= (1-c.cfg.ReverseHysteresis)*odPrice*r.invUnits {
			return // best spot offer not cheap enough yet
		}
		if c.eng.Obs() != nil {
			c.obsMargin = 1 - pickSpot/(odPrice*r.invUnits)
		}
		before := len(c.replicas)
		c.launch(r)
		if len(c.replicas) == before {
			return // launch failed
		}
		r.draining = true
		started++
	}
}

// rebalance migrates the most overpriced spot replica onto a market that
// currently undercuts it by at least the hysteresis margin, make-before-
// break. Spot replicas otherwise ride their market's drift until revoked:
// a fleet that is rarely revoked (big boxes bid high above small-market
// spikes) never re-optimizes, and ends up paying more per unit-hour than
// a churning single-type fleet whose revocations constantly force it back
// to the cheapest market. Mixed-size mode only — the legacy controller
// keeps the paper's migrate-on-revocation-only behavior.
func (c *Controller) rebalance() {
	if !c.mixed {
		return
	}
	// Through a variable, so 1-h rounds like float64 arithmetic rather
	// than folding exactly as an untyped constant expression would.
	h := rebalanceHysteresis
	now := c.eng.Now()
	for started := 0; started < maxReversePerTick; started++ {
		// Same-size moves only: a bigger replacement would manufacture
		// surplus for downsize to shave (and a smaller one a hole),
		// churning the fleet through boot overlaps. Size changes stay the
		// business of the consolidation gate and downsize.
		var victim *replica
		var victimID market.ID
		var victimGap float64 // per-unit price gap to the best replacement
		for _, r := range c.replicas {
			if !r.spot || r.draining || r.doomed || r.replaces != nil || !r.in.Alive() {
				continue
			}
			cur := c.priceOf(r) * r.invUnits
			bar := (1 - h) * cur
			if c.floor.at(now, r.units) >= bar {
				continue // no same-size market dips below bar this hour
			}
			id, eff, ok := c.pickEff(r.units)
			if !ok || eff >= bar {
				continue
			}
			gap := cur - eff
			if victim == nil || gap > victimGap || (gap == victimGap && r.in.ID() > victim.in.ID()) {
				victim, victimID, victimGap = r, id, gap
			}
		}
		if victim == nil {
			return
		}
		if c.eng.Obs() != nil {
			c.obsMargin = victimGap / (c.priceOf(victim) * victim.invUnits)
		}
		if !c.requestSpot(victimID, victim, "rebalance") {
			return // provider rejected; retry next tick
		}
		victim.draining = true
		victim.rebal = true
	}
}

// downsize shrinks an oversized mixed fleet. Scale-down can leave a
// surplus that trimming cannot reclaim because every remaining replica is
// bigger than the surplus (a big box bought at the daytime peak, stranded
// when the overnight target drops below its size). When that happens the
// controller launches a smaller, currently cheaper replacement for the
// most expensive such box and retires the box once the replacement boots
// — the same make-before-break drain as reverse replacement, under the
// same maxReversePerTick. No-op in legacy mode, where every replica is one
// unit and trimming alone tracks the target exactly.
func (c *Controller) downsize() {
	if !c.mixed || c.cfg.ReverseHysteresis < 0 {
		return
	}
	started := 0
	for started < maxReversePerTick {
		// Only alive surplus counts: overshoot explained by a pending
		// consolidation box is transient — the deferred trim reclaims it
		// when the box boots — and must not trigger a drain of its own.
		surplus := -c.targetUnits
		for _, r := range c.replicas {
			if r.doomed || r.replaces != nil || !r.in.Alive() {
				continue
			}
			surplus += r.units
		}
		if surplus <= 0 {
			return
		}
		var victim *replica
		var victimPer float64
		for _, r := range c.replicas {
			if r.doomed || r.replaces != nil || r.draining || !r.in.Alive() || r.units <= surplus {
				continue
			}
			per := c.priceOf(r) * r.invUnits
			if victim == nil || per > victimPer || (per == victimPer && r.in.ID() > victim.in.ID()) {
				victim, victimPer = r, per
			}
		}
		if victim == nil {
			return
		}
		// The victim's kept capacity, decomposed into power-of-two pieces
		// (needed < victim.units, so every piece is strictly smaller). A
		// one-unit surplus on a 4-box drains onto a {2,1} pair; no single
		// size could. Pick a market for every piece before launching any,
		// so the hysteresis test sees the full replacement bill.
		needed := victim.units - surplus
		var pieces []market.ID
		var total float64
		feasible := true
		for s := 1; s <= needed; s <<= 1 {
			if needed&s == 0 {
				continue
			}
			id, eff, ok := c.pickEff(s)
			if !ok {
				feasible = false
				break
			}
			// eff is Spot/s; s is a power of two, so this restores the
			// raw spot price exactly.
			total += eff * float64(s)
			pieces = append(pieces, id)
		}
		if !feasible {
			return
		}
		// Only worth it when the replacement set undercuts the whole big
		// box by the hysteresis margin — in dollars, not per unit: the
		// point is to stop paying for stranded units.
		if total >= (1-c.cfg.ReverseHysteresis)*c.priceOf(victim) {
			return
		}
		launched := 0
		for _, id := range pieces {
			if c.eng.Obs() != nil {
				c.obsMargin = 1 - total/c.priceOf(victim)
			}
			if !c.requestSpot(id, victim, "downsize") {
				break
			}
			launched++
		}
		if launched < len(pieces) {
			// Provider rejected a piece mid-set (practically unreachable:
			// candidates are bid-feasible). Detach what launched — the
			// pieces become ordinary capacity and the trim reclaims them.
			for _, r := range c.replicas {
				if r.replaces == victim {
					r.replaces = nil
				}
			}
			return
		}
		victim.draining = true
		started++
	}
}

func (c *Controller) callbacks(r *replica) cloud.Callbacks {
	return cloud.Callbacks{
		OnRunning:           func(*cloud.Instance) { c.onRunning(r) },
		OnRevocationWarning: func(_ *cloud.Instance, _ sim.Time) { c.onWarning(r) },
		OnTerminated:        func(_ *cloud.Instance, reason cloud.TerminationReason) { c.onTerminated(r, reason) },
	}
}

func (c *Controller) onRunning(r *replica) {
	c.advance(c.eng.Now())
	if rec := c.eng.Recorder(); rec != nil {
		d := rec.End(r.span, c.eng.Now())
		r.span = 0
		if tgt := r.replaces; tgt != nil {
			// Drain latency: request to promoted capacity.
			switch {
			case !tgt.spot:
				rec.ObserveMigration("reverse", d)
			case tgt.rebal:
				rec.ObserveMigration("rebalance", d)
			default:
				rec.ObserveMigration("downsize", d)
			}
		}
	}
	if tgt := r.replaces; tgt != nil {
		// A downsize may drain one big box onto several smaller pieces;
		// the box retires only when the LAST piece boots, so capacity
		// never dips. Earlier pieces stay attached (excluded from the
		// capacity count, which the still-alive box covers).
		last := true
		for _, other := range c.replicas {
			if other != r && other.replaces == tgt && !other.in.Alive() {
				last = false
				break
			}
		}
		if last {
			// Retire the drained replica — an on-demand replica for
			// reverse replacement, an oversized spot box for a downsize —
			// and promote every piece to regular capacity.
			for _, other := range c.replicas {
				if other.replaces == tgt {
					other.replaces = nil
				}
			}
			r.replaces = nil
			switch {
			case !tgt.spot:
				c.reverses++
			case tgt.rebal:
				c.rebalances++
				if o := c.eng.Obs(); o != nil {
					o.Count(float64(c.eng.Now()), obs.CountRebalance)
				}
			default:
				c.downsizes++
			}
			c.terminate(tgt)
		}
	}
	c.reconcile() // trim surplus if the target dropped while booting
}

func (c *Controller) onWarning(r *replica) {
	c.advance(c.eng.Now())
	if rec := c.eng.Recorder(); rec != nil {
		rec.Instant(trace.KindWarning, "", r.in.Market().String(), c.eng.Now())
	}
	if o := c.eng.Obs(); o != nil {
		o.Count(float64(c.eng.Now()), obs.CountInterruption)
	}
	r.doomed = true
	// The replica serves until the grace deadline, but its capacity is
	// lost: replace it now. The spiking market prices itself out of the
	// candidate list, so the replacement lands elsewhere (or on-demand).
	//
	// A doomed box bigger than the anchor gets an on-demand bridge first:
	// spot startup exceeds the grace period, so a spot replacement for a
	// big box would leave a many-unit hole, while on-demand boots inside
	// the grace window. Each bridge is born draining — its spot successor
	// launches in the same instant, and the bridge retires the moment the
	// successor boots, so the on-demand premium is paid only for one spot
	// boot time. One-unit losses keep the legacy spot-replacement path.
	if c.mixed && r.spot && r.units > c.anchorUnits {
		bridgeUnits := c.mktUnits[c.odBest]
		for covered := 0; covered < r.units; covered += bridgeUnits {
			b := c.requestOnDemand("bridge")
			if b == nil {
				break
			}
			before := len(c.replicas)
			c.launch(b)
			if len(c.replicas) > before {
				b.draining = true
			}
		}
	}
	c.reconcile()
}

func (c *Controller) onTerminated(r *replica, reason cloud.TerminationReason) {
	now := c.eng.Now()
	c.advance(now)
	c.remove(r)
	switch reason {
	case cloud.ReasonRevoked:
		if rec := c.eng.Recorder(); rec != nil {
			rec.Instant(trace.KindLoss, "", r.in.Market().String(), now)
		}
		if o := c.eng.Obs(); o != nil {
			o.Count(float64(now), obs.CountLoss)
		}
		c.lost++
		c.lossAt[now]++
		c.reconcile()
	case cloud.ReasonNeverGranted:
		if rec := c.eng.Recorder(); rec != nil {
			rec.EndWith(r.span, now, "never-granted")
			r.span = 0
		}
		c.neverGranted++
		if tgt := r.replaces; tgt != nil {
			// Drain aborted; the drained replica stays. Detach any sibling
			// pieces of a multi-piece downsize — they become ordinary
			// capacity and the trim reclaims them once they boot.
			tgt.draining = false
			for _, other := range c.replicas {
				if other.replaces == tgt {
					other.replaces = nil
				}
			}
		} else {
			c.reconcile()
		}
	case cloud.ReasonUser:
		// Controller-initiated; bookkeeping only.
	}
}

func (c *Controller) remove(r *replica) {
	for i, other := range c.replicas {
		if other == r {
			c.replicas = append(c.replicas[:i], c.replicas[i+1:]...)
			return
		}
	}
}

// accrual is time-integrated capacity accounting: replica-seconds by
// lifecycle and by market (indexed like c.markets), and the target and
// served replica-seconds.
type accrual struct {
	target, served, spot, od float64
	markets                  []MarketUsage
}

// accrue adds dt seconds of the current fleet state into a (nil adds
// nothing) and returns the units serving, min(alive, target). advance
// commits into the controller's totals and Report folds the open tail
// into a zeroed delta, so every sum is built in one order.
func (c *Controller) accrue(a *accrual, dt float64) int {
	alive := 0
	for _, r := range c.replicas {
		if !r.in.Alive() {
			continue
		}
		alive += r.units
		if a == nil {
			continue
		}
		ds := dt * float64(r.units)
		u := &a.markets[r.mi]
		if r.spot {
			a.spot += ds
			u.SpotSeconds += ds
		} else {
			a.od += ds
			u.OnDemandSeconds += ds
		}
	}
	served := min(alive, c.targetUnits)
	if a != nil {
		a.target += float64(c.targetUnits) * dt
		a.served += float64(served) * dt
	}
	return served
}

// advance integrates the capacity and occupancy accounting up to now.
// It must run before every state change (tick, boot, warning,
// termination) so each interval is credited under the state that held.
func (c *Controller) advance(now sim.Time) {
	dt := float64(now - c.lastAccounted)
	if dt <= 0 {
		return
	}
	c.lastAccounted = now
	served := c.accrue(&c.acc, dt)
	if o := c.eng.Obs(); o != nil {
		// Same instant, same values as the accounting above, so the gauge
		// integrals reproduce the target and served totals exactly.
		o.Capacity(float64(now), served, c.targetUnits)
	}
}

// recordDecision appends one ledger entry for an accepted capacity
// request, carrying the inputs that justified it. Reading prices and the
// envelope cursor here is safe: both are pure at a fixed virtual time,
// and the ledger never feeds back into placement, so obs-on runs stay
// byte-identical to obs-off runs.
func (c *Controller) recordDecision(o *obs.Recorder, action string, id market.ID,
	idx int, price, margin float64, note string, replaces *replica) {

	now := float64(c.eng.Now())
	d := obs.Decision{
		At:            now,
		Action:        action,
		Market:        id.String(),
		Type:          string(id.Type),
		Price:         price * c.mktInv[idx],
		Units:         c.mktUnits[idx],
		Rank:          idx,
		Margin:        margin,
		Note:          note,
		TargetUnits:   c.targetUnits,
		CapacityUnits: c.capacityUnits(),
		QuotaUnits:    c.cfg.MaxReplicas * c.anchorUnits,
	}
	if action != "on-demand" && action != "bridge" {
		d.Bid = c.mktBid[idx]
	}
	if c.envCur != nil {
		am, _, weighted := c.envCur.At(c.eng.Now())
		d.ArgminMarket = am.String()
		d.ArgminPrice = weighted
	}
	if replaces != nil && replaces.in != nil {
		d.Replaces = replaces.in.Market().String()
	}
	o.Count(now, obs.CountLaunch)
	o.Decide(d)
}

// ObsTimeline snapshots the telemetry timeline as of the current virtual
// time without mutating recorder or controller — the open accounting
// tail is folded into a copy, mirroring Report's purity rules — so the
// control plane can publish timelines mid-run at any cadence without
// perturbing the final export. Returns the zero Timeline when telemetry
// is off.
func (c *Controller) ObsTimeline() obs.Timeline {
	o := c.eng.Obs()
	if o == nil {
		return obs.Timeline{}
	}
	return o.Snapshot(float64(c.eng.Now()), c.accrue(nil, 0), c.targetUnits)
}

// finalizeObs commits the open telemetry tail at the horizon.
func (c *Controller) finalizeObs(now sim.Time) {
	if o := c.eng.Obs(); o != nil {
		o.Finalize(float64(now), c.accrue(nil, 0), c.targetUnits)
	}
}

// sampleOccupancy appends an occupancy snapshot at most once per hour.
func (c *Controller) sampleOccupancy(now sim.Time) {
	if now-c.lastSample < sim.Hour {
		return
	}
	c.lastSample = now
	pt := OccupancyPoint{At: now, Spot: map[market.ID]int{}}
	for _, r := range c.replicas {
		if !r.in.Alive() {
			continue
		}
		if r.spot {
			pt.Spot[r.in.Market()]++
		} else {
			pt.OnDemand++
		}
	}
	c.occupancy = append(c.occupancy, pt)
}

// Report returns the run report as of the engine's current time without
// mutating the controller: the interval since the last committed state
// change is folded in as a read-only delta. Keeping Report pure is what
// lets the stepped runtime (Sim, internal/controlplane) snapshot a fleet
// mid-run at any cadence and still produce a final report byte-identical
// to an unsnapshotted run — committing the tail here would split the
// accumulators' float sums at every snapshot point.
func (c *Controller) Report() Report {
	now := c.eng.Now()
	delta := accrual{markets: make([]MarketUsage, len(c.markets))}
	if dt := float64(now - c.lastAccounted); dt > 0 {
		c.accrue(&delta, dt)
	}
	rep := Report{
		Strategy:             c.cfg.Strategy.Name(),
		Horizon:              sim.Duration(now),
		TargetReplicaSeconds: c.acc.target + delta.target,
		ServedReplicaSeconds: c.acc.served + delta.served,
		PeakTarget:           c.peakTarget,
		Cost:                 c.prov.Billed(),
		SpotSeconds:          c.acc.spot + delta.spot,
		OnDemandSeconds:      c.acc.od + delta.od,
		Launches:             c.launches,
		SpotLaunches:         c.launches - c.odFallbacks,
		OnDemandFallbacks:    c.odFallbacks,
		ReverseReplacements:  c.reverses,
		Downsizes:            c.downsizes,
		Rebalances:           c.rebalances,
		ReplicasLost:         c.lost,
		NeverGranted:         c.neverGranted,
		ScaleDowns:           c.scaleDowns,
		Occupancy:            c.occupancy,
		MarketSeconds:        map[market.ID]MarketUsage{},
	}
	// All-on-demand baseline: serving the full target from the cheapest
	// on-demand market (per capacity unit in catalog mode), billed
	// continuously.
	odRate := c.mktOD[c.odBest] * c.mktInv[c.odBest]
	rep.BaselineCost = rep.TargetReplicaSeconds / float64(sim.Hour) * odRate
	for i, id := range c.markets {
		m := c.acc.markets[i]
		m.SpotSeconds += delta.markets[i].SpotSeconds
		m.OnDemandSeconds += delta.markets[i].OnDemandSeconds
		rep.MarketSeconds[id] = m
	}
	times := make([]sim.Time, 0, len(c.lossAt))
	for t := range c.lossAt {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		rep.LossEvents = append(rep.LossEvents, LossEvent{At: t, Lost: c.lossAt[t]})
	}
	return rep
}
