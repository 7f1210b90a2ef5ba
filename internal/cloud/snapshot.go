package cloud

import (
	"cmp"
	"fmt"
	"slices"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
)

// instSnap is the plain-data image of one open instance at a quiescent
// instant. Such an instance is Running (Snapshot refuses Pending and
// Revoking ones), so its termination fields are still zero and only the
// fields below vary. The lifecycle callbacks and the billing closure and
// event close over the owning provider; RestoreProvider rebuilds them.
type instSnap struct {
	id           InstanceID
	market       market.ID
	lifecycle    Lifecycle
	bid          float64
	runningAt    sim.Time
	lastHourAt   sim.Time
	lastHourCost float64
	charged      float64
}

// Snapshot is a provider's model state at a quiescent instant: the
// instance table, the running bill, and the RNG position. It copies only
// what can still change. The images of the open instances are copies; the
// table is the provider's own, shared with cap == len: an append past it
// reallocates in whoever appends, and the entries it holds for terminated
// instances are frozen, because a terminated Instance is never written
// again. The pending event heap is deliberately absent — at a quiescent
// instant every provider event is a deterministic function of this state
// (the price clock from the traces and the live instances, billing hours
// from lastHourAt), so RestoreProvider re-arms them instead of copying
// closures.
type Snapshot struct {
	at     sim.Time
	rng    randx.State
	table  []*Instance
	open   []instSnap
	billed float64
}

// Snapshot captures the provider's state if it is quiescent: no allocation
// in flight (Pending) and no revocation mid-grace (Revoking). Those
// transients hold one-shot event closures that cannot be re-derived from
// model state, so a provider in such a state reports ok=false and the
// caller skips this checkpoint.
func (p *Provider) Snapshot() (*Snapshot, bool) {
	open := make([]instSnap, len(p.open))
	for i, in := range p.open {
		if in.state != Running {
			return nil, false
		}
		open[i] = instSnap{
			id:           in.id,
			market:       in.market,
			lifecycle:    in.lifecycle,
			bid:          in.bid,
			runningAt:    in.runningAt,
			lastHourAt:   in.lastHourAt,
			lastHourCost: in.lastHourCost,
			charged:      in.charged,
		}
	}
	return &Snapshot{
		at:     p.eng.Now(),
		rng:    p.rng.State(),
		table:  slices.Clip(p.instances),
		open:   open,
		billed: p.billed,
	}, true
}

// RestoreProvider rebuilds a provider from a snapshot on a fresh engine
// whose clock stands exactly at the snapshot time. The restored table is
// one copy of the snapshot's pointers: terminated instances are the
// snapshot's own, read-only, and each open image becomes a fresh instance.
// The price clock arms only the markets with live spot instances, at their
// first change after the snapshot time (subscribers re-subscribe and arm
// their own), and each open instance's hourly billing event is rescheduled
// at lastHourAt + 1h — the same float arithmetic the original chargeHour
// used — so the restored provider's future is bit-identical to the
// original's.
func RestoreProvider(eng *sim.Engine, set *market.Set, params Params, s *Snapshot) (*Provider, error) {
	if eng.Now() != s.at {
		return nil, fmt.Errorf("cloud: restore at t=%v but snapshot taken at t=%v", eng.Now(), s.at)
	}
	p := newProvider(eng, set, params, randx.Restore(s.rng))
	p.billed = s.billed
	p.instances = slices.Clone(s.table)
	p.open = make([]*Instance, len(s.open))
	for i, si := range s.open {
		ms := p.markets[si.market]
		if ms == nil {
			return nil, fmt.Errorf("cloud: snapshot instance %d in unknown market %s", si.id, si.market)
		}
		in := &Instance{
			id:           si.id,
			market:       si.market,
			ms:           ms,
			lifecycle:    si.lifecycle,
			bid:          si.bid,
			state:        Running,
			runningAt:    si.runningAt,
			lastHourAt:   si.lastHourAt,
			lastHourCost: si.lastHourCost,
			charged:      si.charged,
		}
		in.hourFn = func() { p.chargeHour(in) }
		in.hourEvent = eng.Schedule(si.lastHourAt+sim.Hour, in.hourFn)
		p.instances[in.id] = in
		p.open[i] = in
		if in.lifecycle == Spot {
			ms.live = append(ms.live, in)
		}
	}
	// Revocation walks each live list in instance-ID order, whatever order
	// the snapshot listed its instances in. Markets arm in set order, so
	// the restored clock posts the same events on every run.
	byID := func(a, b *Instance) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(p.open, byID)
	for _, id := range set.IDs() {
		ms := p.markets[id]
		slices.SortFunc(ms.live, byID)
		if ms.active() {
			p.activate(ms)
		}
	}
	return p, nil
}

// AttachCallbacks rewires lifecycle callbacks onto a restored instance.
// Snapshots cannot carry callbacks (they close over the original owner),
// so the restoring scheduler re-registers its own.
func (p *Provider) AttachCallbacks(in *Instance, cb Callbacks) { in.cb = cb }

// Rebid overrides the bid of a live restored spot instance. A fork whose
// bid knob differs from its pilot's re-bids each inherited instance; this
// is sound only when the divergence oracle certified that no price change
// before the fork point fell between the two bids — which also guarantees
// the new bid still covers the current price, checked here defensively.
func (p *Provider) Rebid(in *Instance, bid float64) error {
	if in.lifecycle != Spot || !in.Alive() {
		return fmt.Errorf("cloud: rebid on %v", in)
	}
	if max := p.MaxBid(in.market); bid > max+1e-12 {
		return fmt.Errorf("cloud: rebid %v exceeds cap %v for %s", bid, max, in.market)
	}
	if cur := p.SpotPrice(in.market); cur > bid {
		return fmt.Errorf("cloud: rebid %v below current price %v in %s", bid, cur, in.market)
	}
	in.bid = bid
	return nil
}
