package cloud

import (
	"cmp"
	"fmt"
	"slices"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
)

// instSnap is the plain-data image of one instance: every field except the
// lifecycle callbacks and the billing closure/event, which RestoreProvider
// rebuilds (they close over the owning provider and cannot be copied).
type instSnap struct {
	id           InstanceID
	market       market.ID
	lifecycle    Lifecycle
	bid          float64
	state        State
	requestedAt  sim.Time
	runningAt    sim.Time
	terminatedAt sim.Time
	warnDeadline sim.Time
	reason       TerminationReason
	lastHourAt   sim.Time
	lastHourCost float64
	charged      float64
}

// Snapshot is a deep copy of a provider's model state at a quiescent
// instant: instance records, billing ledger, counters, and the RNG
// position. The pending event heap is deliberately absent — at a quiescent
// instant every provider event is a deterministic function of this state
// (price chains from the market cursors, billing hours from lastHourAt),
// so RestoreProvider re-arms them instead of copying closures.
type Snapshot struct {
	at     sim.Time
	rng    randx.State
	nextID InstanceID
	insts  []instSnap

	ledgerEntries []Charge
	ledgerTotal   float64
	ledgerSpot    float64
	ledgerOD      float64

	counters Counters
}

// Snapshot captures the provider's state if it is quiescent: no allocation
// in flight (Pending) and no revocation mid-grace (Revoking). Those
// transients hold one-shot event closures that cannot be re-derived from
// model state, so a provider in such a state reports ok=false and the
// caller skips this checkpoint.
func (p *Provider) Snapshot() (*Snapshot, bool) {
	s := &Snapshot{
		at:          p.eng.Now(),
		rng:         p.rng.State(),
		nextID:      p.nextID,
		ledgerTotal: p.ledger.total,
		ledgerSpot:  p.ledger.spotTotal,
		ledgerOD:    p.ledger.onDemandTotal,
		counters:    p.Counters(),
	}
	// Instance IDs are dense from 0, so this order is deterministic.
	s.insts = make([]instSnap, 0, len(p.instances))
	for id := InstanceID(0); id < p.nextID; id++ {
		in := p.instances[id]
		if in == nil {
			continue
		}
		if in.state == Pending || in.state == Revoking {
			return nil, false
		}
		s.insts = append(s.insts, instSnap{
			id:           in.id,
			market:       in.market,
			lifecycle:    in.lifecycle,
			bid:          in.bid,
			state:        in.state,
			requestedAt:  in.requestedAt,
			runningAt:    in.runningAt,
			terminatedAt: in.terminatedAt,
			warnDeadline: in.warnDeadline,
			reason:       in.reason,
			lastHourAt:   in.lastHourAt,
			lastHourCost: in.lastHourCost,
			charged:      in.charged,
		})
	}
	s.ledgerEntries = append([]Charge(nil), p.ledger.entries...)
	return s, true
}

// RestoreProvider rebuilds a provider from a snapshot on a fresh engine
// whose clock stands exactly at the snapshot time. Price chains re-arm
// from the current cursor position (NextChangeAfter(at) names the same
// pending change the original provider had in its heap), and each alive
// instance's hourly billing event is rescheduled at lastHourAt + 1h — the
// same float arithmetic the original chargeHour used — so the restored
// provider's future is bit-identical to the original's.
func RestoreProvider(eng *sim.Engine, set *market.Set, params Params, s *Snapshot) (*Provider, error) {
	if eng.Now() != s.at {
		return nil, fmt.Errorf("cloud: restore at t=%v but snapshot taken at t=%v", eng.Now(), s.at)
	}
	p := NewProvider(eng, set, params)
	p.rng = randx.Restore(s.rng)
	p.nextID = s.nextID
	p.revocations = s.counters.Revocations
	p.spotRequests = s.counters.SpotRequests
	p.neverGranted = s.counters.NeverGranted
	p.spotLaunched = s.counters.SpotLaunched
	p.odLaunched = s.counters.OnDemandLaunch
	p.userTerminate = s.counters.UserTerminating
	p.ledger = Ledger{
		entries:       append([]Charge(nil), s.ledgerEntries...),
		total:         s.ledgerTotal,
		spotTotal:     s.ledgerSpot,
		onDemandTotal: s.ledgerOD,
	}
	for _, si := range s.insts {
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
			state:        si.state,
			requestedAt:  si.requestedAt,
			runningAt:    si.runningAt,
			terminatedAt: si.terminatedAt,
			warnDeadline: si.warnDeadline,
			reason:       si.reason,
			lastHourAt:   si.lastHourAt,
			lastHourCost: si.lastHourCost,
			charged:      si.charged,
		}
		in.hourFn = func() { p.chargeHour(in) }
		p.instances[in.id] = in
		if in.Alive() {
			if in.lifecycle == Spot {
				ms.live = append(ms.live, in)
			}
			in.hourEvent = eng.Schedule(si.lastHourAt+sim.Hour, in.hourFn)
		}
	}
	// Revocation walks each live list in instance-ID order, whatever order
	// the snapshot listed its instances in.
	for _, ms := range p.markets {
		slices.SortFunc(ms.live, func(a, b *Instance) int { return cmp.Compare(a.id, b.id) })
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
