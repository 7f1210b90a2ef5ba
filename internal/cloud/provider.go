package cloud

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Provider is the simulated infrastructure cloud. All methods must be
// called from inside the owning sim.Engine's event loop (the simulation is
// single-threaded by design).
type Provider struct {
	eng    *sim.Engine
	set    *market.Set
	params Params
	rng    *randx.Stream

	// markets maps each market to its hot-path state. The map is consulted
	// only where a caller names a market by ID; instances and the price
	// clock hold their *marketState directly.
	markets map[market.ID]*marketState

	// The price clock (clock.go): due is a min-heap of the armed markets
	// under dueBefore, clockAt the time of the live clock event (+Inf when
	// none), clockFn the persistent closure that event runs, and origin the
	// construction or restore time that tie walks stop at.
	due     []*marketState
	clockAt sim.Time
	clockFn func()
	origin  sim.Time

	// instances is the instance table, indexed by the dense IDs; open
	// holds the instances not yet terminated, in ID order. A terminated
	// instance is never written again, so a snapshot shares the table's
	// prefix instead of copying it (snapshot.go).
	instances []*Instance
	open      []*Instance
	// spotScratch is reused by onPriceChange to snapshot a market's live
	// spot instances without allocating per price change.
	spotScratch []*Instance

	// billed is the net amount billed: every instance-hour charge less
	// every revocation refund, added in billing order.
	billed float64
}

// NewProvider builds a provider over the price set. Price changes after
// the engine's current time reach a market's spot instances and
// subscribers as they happen; no engine event is spent on markets nobody
// listens to.
func NewProvider(eng *sim.Engine, set *market.Set, params Params) *Provider {
	return newProvider(eng, set, params, randx.Derive(params.Seed, "cloud/provider"))
}

// newProvider builds a provider drawing from rng: a fresh stream, or one
// restored from a snapshot.
func newProvider(eng *sim.Engine, set *market.Set, params Params, rng *randx.Stream) *Provider {
	p := &Provider{
		eng:     eng,
		set:     set,
		params:  params,
		rng:     rng,
		markets: map[market.ID]*marketState{},
		clockAt: math.Inf(1),
		origin:  eng.Now(),
	}
	p.clockFn = p.fireClock
	for rank, id := range set.IDs() {
		tr := set.Trace(id)
		p.markets[id] = &marketState{
			rank:     rank,
			cursor:   market.NewCursor(tr),
			times:    tr.Times(),
			prices:   tr.Prices(),
			onDemand: set.OnDemand(id),
			label:    id.String(),
		}
	}
	return p
}

// marketState is the per-market hot-path state: a monotone cursor over the
// trace (the simulation clock only moves forward), the trace columns and
// armed position the price clock walks, and everything a price change or
// billing hour reads, so neither hashes a market.ID.
type marketState struct {
	rank     int // position in set.IDs(): the last tie-break
	cursor   *market.Cursor
	times    []sim.Time
	prices   []float64
	onDemand float64
	label    string // the market's ID.String(), for telemetry charges
	// armed reports whether the market waits in the clock's due heap for
	// the change at index next, due at nextAt.
	armed  bool
	next   int
	nextAt sim.Time
	// subs are the price subscribers, in subscription order.
	subs []func(t sim.Time, price float64)
	// live holds the market's live spot instances in ascending instance
	// ID: instances append in ID order and removal keeps the order.
	live []*Instance
}

// without drops in from a list of instances in ascending ID, keeping the
// order.
func without(list []*Instance, in *Instance) []*Instance {
	i, ok := slices.BinarySearchFunc(list, in.id, func(x *Instance, id InstanceID) int { return cmp.Compare(x.id, id) })
	if !ok {
		return list
	}
	return slices.Delete(list, i, i+1)
}

// Engine returns the simulation engine driving this provider.
func (p *Provider) Engine() *sim.Engine { return p.eng }

// Markets returns the market universe.
func (p *Provider) Markets() *market.Set { return p.set }

// Billed returns the net amount billed to every instance so far.
func (p *Provider) Billed() float64 { return p.billed }

// SpotPrice returns the current spot price of a market. It panics on a
// market outside the provider's set.
func (p *Provider) SpotPrice(id market.ID) float64 {
	return p.markets[id].cursor.PriceAt(p.eng.Now())
}

// OnDemandPrice returns the fixed on-demand price of a market, or 0 when
// unknown.
func (p *Provider) OnDemandPrice(id market.ID) float64 {
	return p.set.OnDemand(id)
}

// MaxBid returns the largest bid the provider accepts for a market
// (BidCap x on-demand).
func (p *Provider) MaxBid(id market.ID) float64 {
	return BidCap * p.set.OnDemand(id)
}

// SubscribePrice registers fn to run on every price change of market id
// strictly after now. The subscription lasts for the life of the provider.
// Subscribing to a market outside the set is a no-op: it never changes
// price.
func (p *Provider) SubscribePrice(id market.ID, fn func(t sim.Time, price float64)) {
	if ms := p.markets[id]; ms != nil {
		ms.subs = append(ms.subs, fn)
		p.activate(ms)
	}
}

func (p *Provider) onPriceChange(ms *marketState, price float64) {
	now := p.eng.Now()
	// Revoke or cancel spot instances whose bid the price now exceeds, in
	// ascending instance ID. Their callbacks may launch or terminate
	// instances in this market, so walk a snapshot of the live list; the
	// scratch buffer is free again before the clock delivers the next
	// change.
	if len(ms.live) > 0 {
		p.spotScratch = append(p.spotScratch[:0], ms.live...)
		for _, in := range p.spotScratch {
			if price > in.bid {
				p.beginRevocation(in)
			}
		}
	}
	for _, fn := range ms.subs {
		fn(now, price)
	}
}

// RequestSpot requests a spot instance in market id at the given bid. The
// request fails immediately when the market is unknown, the bid is not
// positive, exceeds the provider's bid cap, or is below the current spot
// price. On success the instance is Pending; OnRunning fires after the
// sampled allocation latency unless the price overtakes the bid first, in
// which case OnTerminated(ReasonNeverGranted) fires instead.
func (p *Provider) RequestSpot(id market.ID, bid float64, cb Callbacks) (*Instance, error) {
	ms := p.markets[id]
	if ms == nil {
		return nil, fmt.Errorf("cloud: unknown market %s", id)
	}
	if bid <= 0 {
		return nil, fmt.Errorf("cloud: non-positive bid %v", bid)
	}
	if max := p.MaxBid(id); bid > max+1e-12 {
		return nil, fmt.Errorf("cloud: bid %v exceeds cap %v for %s", bid, max, id)
	}
	if cur := ms.cursor.PriceAt(p.eng.Now()); cur > bid {
		return nil, fmt.Errorf("cloud: current price %v above bid %v in %s", cur, bid, id)
	}
	in := p.newInstance(ms, id, Spot, bid, cb)
	delay := p.rng.LognormalMeanCV(p.params.spotStartup(id.Region), p.params.StartupCV)
	p.eng.PostAfter(delay, func() { p.finishAllocation(in) })
	return in, nil
}

// RequestOnDemand requests a non-revocable on-demand instance. OnRunning
// fires after the sampled allocation latency.
func (p *Provider) RequestOnDemand(id market.ID, cb Callbacks) (*Instance, error) {
	ms := p.markets[id]
	if ms == nil {
		return nil, fmt.Errorf("cloud: unknown market %s", id)
	}
	in := p.newInstance(ms, id, OnDemand, 0, cb)
	delay := p.rng.LognormalMeanCV(p.params.onDemandStartup(id.Region), p.params.StartupCV)
	p.eng.PostAfter(delay, func() { p.finishAllocation(in) })
	return in, nil
}

func (p *Provider) newInstance(ms *marketState, id market.ID, lc Lifecycle, bid float64, cb Callbacks) *Instance {
	in := &Instance{
		id:        InstanceID(len(p.instances)),
		market:    id,
		ms:        ms,
		lifecycle: lc,
		bid:       bid,
		state:     Pending,
		cb:        cb,
	}
	// One persistent billing closure per instance instead of one per
	// instance-hour.
	in.hourFn = func() { p.chargeHour(in) }
	p.instances = append(p.instances, in)
	p.open = append(p.open, in)
	if lc == Spot {
		ms.live = append(ms.live, in)
		p.activate(ms)
	}
	return in
}

func (p *Provider) finishAllocation(in *Instance) {
	if in.state != Pending {
		return // cancelled while allocating
	}
	now := p.eng.Now()
	// A spot request whose market overtook the bid during allocation was
	// already cancelled by beginRevocation (state != Pending); reaching
	// here means the bid still holds.
	in.state = Running
	in.runningAt = now
	p.chargeHour(in)
	if in.cb.OnRunning != nil {
		in.cb.OnRunning(in)
	}
}

// chargeHour bills the instance-hour starting now and schedules the next
// one.
func (p *Provider) chargeHour(in *Instance) {
	if !in.Alive() {
		return
	}
	now := p.eng.Now()
	rec := p.eng.Recorder()
	rate := in.ms.onDemand
	class := "on-demand"
	if in.lifecycle == Spot {
		// "billed on an hourly basis, based on the spot price (not the
		// bid price) at the beginning of each hour".
		rate = in.ms.cursor.PriceAt(now)
		class = "spot"
		rec.ObserveSpotPrice(rate)
	}
	rec.Instant(trace.KindBillingHour, class, "billing", now)
	in.lastHourAt = now
	in.lastHourCost = rate
	in.charged += rate
	p.billed += rate
	if o := p.eng.Obs(); o != nil {
		o.Charge(float64(now), in.ms.label, string(in.market.Type), rate)
	}
	in.hourEvent = p.eng.After(sim.Hour, in.hourFn)
}

// beginRevocation warns a spot instance and schedules its termination
// after the grace period. Pending requests are cancelled immediately.
func (p *Provider) beginRevocation(in *Instance) {
	switch in.state {
	case Pending:
		// The request was never granted: cancel silently (no charge).
		p.terminate(in, ReasonNeverGranted)
		return
	case Running:
		// fall through to warn
	default:
		return // already revoking or gone
	}
	in.state = Revoking
	in.warnDeadline = p.eng.Now() + GracePeriod
	if in.cb.OnRevocationWarning != nil {
		in.cb.OnRevocationWarning(in, in.warnDeadline)
	}
	p.eng.Post(in.warnDeadline, func() {
		if in.state == Revoking {
			p.refundPartialHour(in)
			p.terminate(in, ReasonRevoked)
		}
	})
}

// refundPartialHour reverses the in-progress hour of a revoked spot
// instance when the revocation lands strictly inside the hour.
func (p *Provider) refundPartialHour(in *Instance) {
	now := p.eng.Now()
	if in.lastHourCost == 0 || now >= in.lastHourAt+sim.Hour {
		return
	}
	in.charged -= in.lastHourCost
	p.billed -= in.lastHourCost
	if o := p.eng.Obs(); o != nil {
		o.Charge(float64(now), in.ms.label, string(in.market.Type), -in.lastHourCost)
	}
}

// Terminate voluntarily releases an instance. A started hour remains
// billed in full (EC2 charged user-terminated partial hours). Terminating
// a Pending request cancels it without charge; terminating an instance
// that is already Terminated is an error.
func (p *Provider) Terminate(in *Instance) error {
	if in.state == Terminated {
		return fmt.Errorf("cloud: %v already terminated", in)
	}
	p.terminate(in, ReasonUser)
	return nil
}

func (p *Provider) terminate(in *Instance, reason TerminationReason) {
	in.state = Terminated
	in.terminatedAt = p.eng.Now()
	in.reason = reason
	if in.hourEvent != nil {
		p.eng.Cancel(in.hourEvent)
		in.hourEvent = nil
	}
	p.open = without(p.open, in)
	if in.lifecycle == Spot {
		in.ms.live = without(in.ms.live, in)
	}
	if in.cb.OnTerminated != nil {
		in.cb.OnTerminated(in, reason)
	}
}

// Instance returns a previously created instance by ID, or nil.
func (p *Provider) Instance(id InstanceID) *Instance {
	if id < 0 || id >= InstanceID(len(p.instances)) {
		return nil
	}
	return p.instances[id]
}
