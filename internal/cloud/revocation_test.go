package cloud

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"spothost/internal/sim"
)

// orderLog records revocation warnings and never-granted cancellations in
// the order the provider delivers them.
type orderLog struct{ got []string }

func (l *orderLog) callbacks() Callbacks {
	return Callbacks{
		OnRevocationWarning: func(in *Instance, _ sim.Time) {
			l.got = append(l.got, fmt.Sprintf("warn%d", in.ID()))
		},
		OnTerminated: func(in *Instance, r TerminationReason) {
			if r == ReasonNeverGranted {
				l.got = append(l.got, fmt.Sprintf("never%d", in.ID()))
			}
		},
	}
}

// requestSpots requests one spot instance in mSmall per bid.
func requestSpots(t *testing.T, p *Provider, log *orderLog, bids ...float64) []*Instance {
	t.Helper()
	var out []*Instance
	for _, b := range bids {
		in, err := p.RequestSpot(mSmall, b, log.callbacks())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

// checkSpikeOrder runs the shared tail of the revocation-order scenario on
// a provider holding running instances 0, 2 and 3 in mSmall (1 was
// terminated): at t=7100 it requests instances 4-6 and cancels the middle
// one, then lets testSet's spike at t=7200 overtake every bid. Warnings
// and never-granted cancellations must arrive in ascending instance ID.
func checkSpikeOrder(t *testing.T, eng *sim.Engine, p *Provider, log *orderLog) {
	t.Helper()
	eng.Schedule(7100, func() {
		pending := requestSpots(t, p, log, 0.06, 0.24, 0.10)
		if err := p.Terminate(pending[1]); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(3 * sim.Hour)
	want := "warn0 warn2 warn3 never4 never6"
	if got := strings.Join(log.got, " "); got != want {
		t.Fatalf("spike delivered %q, want %q", got, want)
	}
}

func TestRevocationOrderByInstanceID(t *testing.T) {
	// Instance 1, terminated mid-list, must leave the others in ID order.
	setup := func(t *testing.T) (*sim.Engine, *Provider, *orderLog) {
		eng, p := newTestProvider(t)
		log := &orderLog{}
		ins := requestSpots(t, p, log, 0.06, 0.24, 0.12, 0.10)
		eng.RunUntil(1000)
		if err := p.Terminate(ins[1]); err != nil {
			t.Fatal(err)
		}
		return eng, p, log
	}

	t.Run("live", func(t *testing.T) {
		eng, p, log := setup(t)
		checkSpikeOrder(t, eng, p, log)
	})

	t.Run("restored", func(t *testing.T) {
		eng, p, _ := setup(t)
		s, ok := p.Snapshot()
		if !ok {
			t.Fatal("provider not quiescent at t=1000")
		}
		// RestoreProvider must rebuild the live list in ID order even from
		// a snapshot that lists its instances out of order.
		slices.Reverse(s.open)
		eng2 := sim.NewEngineAt(eng.Now())
		p2, err := RestoreProvider(eng2, p.Markets(), fixedParams(), s)
		if err != nil {
			t.Fatal(err)
		}
		log := &orderLog{}
		for id := InstanceID(0); id < 4; id++ {
			if in := p2.Instance(id); in.Alive() {
				p2.AttachCallbacks(in, log.callbacks())
			}
		}
		checkSpikeOrder(t, eng2, p2, log)
	})
}
