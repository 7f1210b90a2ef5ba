package sched

import (
	"spothost/internal/cloud"
	"spothost/internal/market"
)

// serverGroup is a set of identically-purchased servers hosting the
// service's VMs. Groups are acquired atomically: onReady fires when every
// member is running; onFailed fires if any member cannot be granted (spot
// price overtook the bid during allocation) or is revoked before the group
// ever became ready.
type serverGroup struct {
	market    market.ID
	idx       int // market's index in the scheduler's candidate slices
	lifecycle cloud.Lifecycle
	bid       float64
	insts     []*cloud.Instance

	readyCount int
	ready      bool
	abandoned  bool

	onReady  func(*serverGroup)
	onFailed func(*serverGroup)
}

// alive reports whether every member can still host work.
func (g *serverGroup) alive() bool {
	for _, in := range g.insts {
		if !in.Alive() {
			return false
		}
	}
	return len(g.insts) > 0
}

// abandon marks the group dead and terminates any members that are still
// alive or pending. Safe to call repeatedly.
func (g *serverGroup) abandon(prov *cloud.Provider) {
	if g.abandoned {
		return
	}
	g.abandoned = true
	for _, in := range g.insts {
		if in.State() != cloud.Terminated {
			// Terminate returns an error only for already-terminated
			// instances, which the guard excludes.
			_ = prov.Terminate(in)
		}
	}
}

// groupCallbacks builds the lifecycle callbacks wiring a group's members
// to the scheduler's handlers. It is shared by acquireGroup and by fork
// restoration (Resume re-attaches the identical wiring to instances
// inherited from a checkpoint).
func (s *Scheduler) groupCallbacks(g *serverGroup) cloud.Callbacks {
	return cloud.Callbacks{
		OnRunning: func(in *cloud.Instance) {
			if g.abandoned {
				return
			}
			g.readyCount++
			if g.readyCount == len(g.insts) {
				g.ready = true
				if g.onReady != nil {
					g.onReady(g)
				}
			}
		},
		OnRevocationWarning: func(in *cloud.Instance, deadline float64) {
			s.onWarning(g, in, deadline)
		},
		OnTerminated: func(in *cloud.Instance, reason cloud.TerminationReason) {
			s.onTerminated(g, in, reason)
		},
	}
}

// acquireGroup requests the servers the service needs in market
// cands[i], spot ones at the policy's bid. Lifecycle warnings and
// terminations are routed to the scheduler's handlers; group-level ready
// and failure conditions fire the provided callbacks.
func (s *Scheduler) acquireGroup(i int, lc cloud.Lifecycle,
	onReady, onFailed func(*serverGroup)) (*serverGroup, error) {

	m, n := s.cands[i], int(s.mktServers[i])
	bid := 0.0
	if lc == cloud.Spot {
		bid = s.mktBid[i]
	}
	g := &serverGroup{
		market:    m,
		idx:       i,
		lifecycle: lc,
		bid:       bid,
		onReady:   onReady,
		onFailed:  onFailed,
	}
	cb := s.groupCallbacks(g)
	for range n {
		var in *cloud.Instance
		var err error
		if lc == cloud.Spot {
			in, err = s.prov.RequestSpot(m, bid, cb)
		} else {
			in, err = s.prov.RequestOnDemand(m, cb)
		}
		if err != nil {
			// Roll back the members already requested.
			g.abandon(s.prov)
			return nil, err
		}
		g.insts = append(g.insts, in)
		s.instances = append(s.instances, in.ID())
	}
	return g, nil
}
