package cloud

import (
	"fmt"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// InstanceID uniquely identifies an instance within one provider.
type InstanceID int64

// Lifecycle distinguishes the two purchase models.
type Lifecycle int

const (
	// OnDemand instances have a fixed price and are never revoked.
	OnDemand Lifecycle = iota
	// Spot instances are billed at the fluctuating market price and are
	// revoked when the price exceeds the customer's bid.
	Spot
)

// String implements fmt.Stringer.
func (l Lifecycle) String() string {
	if l == Spot {
		return "spot"
	}
	return "on-demand"
}

// State is an instance's lifecycle state.
type State int

const (
	// Pending: requested, allocation in progress.
	Pending State = iota
	// Running: allocated and booted; billing accrues.
	Running
	// Revoking: warned; termination is scheduled at WarnDeadline.
	Revoking
	// Terminated: gone.
	Terminated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Revoking:
		return "revoking"
	default:
		return "terminated"
	}
}

// TerminationReason explains why an instance stopped.
type TerminationReason int

const (
	// ReasonUser: the customer terminated the instance voluntarily.
	ReasonUser TerminationReason = iota
	// ReasonRevoked: the provider reclaimed a spot instance after the
	// grace period.
	ReasonRevoked
	// ReasonNeverGranted: a pending spot request was cancelled because the
	// price rose above the bid before allocation completed.
	ReasonNeverGranted
)

// String implements fmt.Stringer.
func (r TerminationReason) String() string {
	switch r {
	case ReasonUser:
		return "user-terminated"
	case ReasonRevoked:
		return "revoked"
	default:
		return "never-granted"
	}
}

// Callbacks receive instance lifecycle notifications. Any field may be nil.
type Callbacks struct {
	// OnRunning fires when the instance finishes allocation and boots.
	OnRunning func(*Instance)
	// OnRevocationWarning fires when the provider decides to reclaim a
	// spot instance; terminateAt is the hard deadline (warning time +
	// grace period).
	OnRevocationWarning func(inst *Instance, terminateAt sim.Time)
	// OnTerminated fires exactly once when the instance reaches
	// Terminated, for any reason.
	OnTerminated func(inst *Instance, reason TerminationReason)
}

// Instance is one leased server.
type Instance struct {
	id        InstanceID
	market    market.ID
	ms        *marketState // the provider's state for market
	lifecycle Lifecycle
	bid       float64 // spot only; 0 for on-demand

	state        State
	requestedAt  sim.Time
	runningAt    sim.Time
	terminatedAt sim.Time
	warnDeadline sim.Time
	reason       TerminationReason

	cb Callbacks

	// Billing bookkeeping. hourFn is the persistent hourly billing
	// closure, allocated once at creation and rearmed every hour.
	hourEvent    *sim.Event
	hourFn       func()
	lastHourAt   sim.Time
	lastHourCost float64
	charged      float64
}

// ID returns the instance identifier.
func (in *Instance) ID() InstanceID { return in.id }

// Market returns the (region, type) market the instance runs in.
func (in *Instance) Market() market.ID { return in.market }

// State returns the current lifecycle state.
func (in *Instance) State() State { return in.state }

// RunningAt returns when the instance booted (meaningful once Running).
func (in *Instance) RunningAt() sim.Time { return in.runningAt }

// TerminatedAt returns when the instance terminated (meaningful once
// Terminated).
func (in *Instance) TerminatedAt() sim.Time { return in.terminatedAt }

// Reason returns the termination reason (meaningful once Terminated).
func (in *Instance) Reason() TerminationReason { return in.reason }

// Charged returns the total amount billed to this instance so far,
// including any revocation refund.
func (in *Instance) Charged() float64 { return in.charged }

// NextHourBoundary returns the end of the current billing hour: the next
// whole instance-hour after t, measured from boot. Panics if the instance
// has not booted.
func (in *Instance) NextHourBoundary(t sim.Time) sim.Time {
	if in.state == Pending {
		panic(fmt.Sprintf("cloud: NextHourBoundary on pending instance %d", in.id))
	}
	return sim.NextHourBoundary(in.runningAt, t)
}

// Alive reports whether the instance can still host work (Running or
// inside its revocation grace window).
func (in *Instance) Alive() bool { return in.state == Running || in.state == Revoking }

// String implements fmt.Stringer for debugging.
func (in *Instance) String() string {
	return fmt.Sprintf("inst%d(%s,%s,%s)", in.id, in.market, in.lifecycle, in.state)
}
