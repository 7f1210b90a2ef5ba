package fleet

import (
	"context"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Sim is a resumable fleet simulation: the engine/provider/controller
// stack of Run, split so a caller can advance it in bounded slices of
// virtual time instead of one blocking run to the horizon. It exists for
// the control plane's sharded runtime, where one goroutine time-slices
// many registered fleets; Run and friends are now thin wrappers over it.
//
// Slicing is observationally invisible: events fire in the same order at
// the same virtual times whether the run is advanced in one Step or many,
// and Report never mutates controller state, so the final report is
// byte-identical to an unsliced run no matter how often the caller
// stepped or snapshotted. A Sim is not safe for concurrent use — exactly
// one goroutine may drive it at a time.
type Sim struct {
	eng     *sim.Engine
	ctrl    *Controller
	rec     *trace.Recorder
	ob      *obs.Recorder
	horizon sim.Duration
	seed    int64
	done    bool
}

// NewSimObs builds a resumable fleet simulation over the price set, with
// recorders attached to the run's engine: the trace recorder gets replica
// lifecycles, the telemetry recorder the controller's capacity
// accounting, its decision ledger and the provider's billing. Either may
// be nil at no cost — the disabled path adds no allocations
// (TestObsOffAllocs). The controller is started (its first autoscaling
// tick runs at virtual time zero) but no events execute until the first
// Step. A zero, negative, or over-long horizon is clamped to the traces'
// extent, exactly as in Run.
func NewSimObs(set *market.Set, cloudParams cloud.Params, cfg Config,
	horizon sim.Duration, rec *trace.Recorder, ob *obs.Recorder) (*Sim, error) {

	horizon = set.ClampHorizon(horizon)
	eng := sim.NewEngine()
	eng.SetRecorder(rec)
	eng.SetObs(ob)
	prov := cloud.NewProvider(eng, set, cloudParams)
	c, err := New(prov, cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	return &Sim{
		eng:     eng,
		ctrl:    c,
		rec:     rec,
		ob:      ob,
		horizon: horizon,
		seed:    cloudParams.Seed,
	}, nil
}

// Step advances the simulation to virtual time until (clamped to the
// horizon) and reports whether the run is complete. A canceled ctx aborts
// the slice within one engine cancellation-poll batch and returns ctx's
// error with the clock at the last executed event; calling Step again
// resumes from there. Step on a finished Sim is a no-op returning true.
func (s *Sim) Step(ctx context.Context, until sim.Time) (bool, error) {
	if s.done {
		return true, nil
	}
	if until > s.horizon {
		until = s.horizon
	}
	if err := s.eng.RunUntilCtx(ctx, until); err != nil {
		return false, err
	}
	if until >= s.horizon {
		s.done = true
		s.rec.CloseOpen(s.eng.Now())
		s.ctrl.finalizeObs(s.eng.Now())
	}
	return s.done, nil
}

// Timeline snapshots the telemetry timeline as of the current virtual
// time (see Controller.ObsTimeline); the zero Timeline when telemetry is
// off.
func (s *Sim) Timeline() obs.Timeline { return s.ctrl.ObsTimeline() }

// Now returns the simulation's current virtual time.
func (s *Sim) Now() sim.Time { return s.eng.Now() }

// Horizon returns the clamped run horizon.
func (s *Sim) Horizon() sim.Duration { return s.horizon }

// Report snapshots the fleet report as of the current virtual time. It is
// safe to call between any two Steps (the controller is not mutated), and
// after the final Step it returns the same report Run would have.
func (s *Sim) Report() Report {
	rep := s.ctrl.Report()
	rep.Seed = s.seed
	return rep
}
