package cloud

import (
	"math"
	"sort"
)

// The price clock delivers spot price changes only to markets someone is
// listening to. A market is active while it has live spot instances
// (Pending included) or price subscribers; only active markets are armed.
// Armed markets wait in a binary heap of the provider's own, ordered by
// their next change time, and the provider keeps one pooled engine event
// at the head time. That event drains every market due at that time and
// re-arms for the new head, so a month of price traffic across a
// 40-market universe costs the engine one event per distinct change time
// of the markets in use, not one per change per market.
//
// Tie order is the contract. Changes at one instant are delivered in the
// order of per-market event chains, in which every market is armed at the
// provider's origin in set order and each change posts the market's next
// one: tied changes fire in the order their predecessors did. tieBefore
// computes that order from the traces alone, so it holds whether or not a
// market was armed in between, and draining all tied markets inside one
// engine event keeps every event a callback posts at that instant behind
// all of them.

// active reports whether anyone is listening to the market's price.
func (ms *marketState) active() bool { return len(ms.live) > 0 || len(ms.subs) > 0 }

// activate arms the market if it is not armed yet.
func (p *Provider) activate(ms *marketState) {
	if !ms.armed {
		p.arm(ms)
	}
}

// arm queues the market's first price change strictly after now, if any,
// and moves the clock event earlier when that change is the new head.
func (p *Provider) arm(ms *marketState) {
	now := p.eng.Now()
	ts := ms.times
	i := ms.next
	if i < len(ts) && ts[i] <= now {
		rest := ts[i:]
		i += sort.Search(len(rest), func(j int) bool { return rest[j] > now })
	}
	ms.next = i
	if i >= len(ts) {
		return
	}
	ms.nextAt = ts[i]
	ms.armed = true
	p.due = append(p.due, ms)
	p.siftUp(len(p.due) - 1)
	if ms.nextAt < p.clockAt {
		p.clockAt = ms.nextAt
		p.eng.Post(ms.nextAt, p.clockFn)
	}
}

// fireClock is the clock event: it delivers every armed change due now,
// in tie order, then posts the event for the next head. An event that an
// earlier activation superseded finds clockAt moved and does nothing.
func (p *Provider) fireClock() {
	now := p.eng.Now()
	if now != p.clockAt {
		return
	}
	// clockAt stays at now while draining, so markets armed by callbacks
	// (always strictly later, so never above the market being delivered)
	// queue without posting events of their own. The delivered market
	// stays armed at the top meanwhile, which makes its own re-activation
	// a no-op; afterwards it moves on to its next change in place.
	for len(p.due) > 0 && p.due[0].nextAt == now {
		ms := p.due[0]
		p.onPriceChange(ms, ms.prices[ms.next])
		if ms.next++; ms.active() && ms.next < len(ms.times) {
			ms.nextAt = ms.times[ms.next]
		} else {
			ms.armed = false
			last := len(p.due) - 1
			p.due[0] = p.due[last]
			p.due[last] = nil
			p.due = p.due[:last]
		}
		p.siftDown(0)
	}
	p.clockAt = math.Inf(1)
	if len(p.due) > 0 {
		p.clockAt = p.due[0].nextAt
		p.eng.Post(p.clockAt, p.clockFn)
	}
}

// dueBefore reports whether a's armed change fires before b's.
func (p *Provider) dueBefore(a, b *marketState) bool {
	if a.nextAt != b.nextAt {
		return a.nextAt < b.nextAt
	}
	return p.tieBefore(a, b)
}

// tieBefore orders two markets whose armed changes share a time the way
// per-market event chains did: by their previous change times, walking
// back while those tie too. A change at or before the provider's origin
// (construction or restore time) counts as the earliest, since the chains
// armed every market then; if both walks reach it, set order decides.
func (p *Provider) tieBefore(a, b *marketState) bool {
	for i, j := a.next-1, b.next-1; ; i, j = i-1, j-1 {
		ta, tb := math.Inf(-1), math.Inf(-1)
		if i >= 0 && a.times[i] > p.origin {
			ta = a.times[i]
		}
		if j >= 0 && b.times[j] > p.origin {
			tb = b.times[j]
		}
		if ta != tb {
			return ta < tb
		}
		if math.IsInf(ta, -1) {
			return a.rank < b.rank
		}
	}
}

// siftUp moves due[i] toward the root of the min-heap under dueBefore.
func (p *Provider) siftUp(i int) {
	h := p.due
	ms := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !p.dueBefore(ms, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ms
}

// siftDown moves due[i] toward the leaves of the min-heap under dueBefore.
func (p *Provider) siftDown(i int) {
	h := p.due
	n := len(h)
	if i >= n {
		return
	}
	ms := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && p.dueBefore(h[r], h[c]) {
			c = r
		}
		if !p.dueBefore(h[c], ms) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ms
}
