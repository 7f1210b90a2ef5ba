package cloud

import (
	"math"
	"runtime"
	"testing"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
)

var snapSink *Snapshot

// snapshotBytes returns the bytes one Snapshot call allocates, averaged
// over many calls so that a stray runtime allocation inside the window
// does not count.
func snapshotBytes(t *testing.T, p *Provider) float64 {
	t.Helper()
	const runs = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s, ok := p.Snapshot()
		if !ok {
			t.Fatal("provider not quiescent")
		}
		snapSink = s
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// retiredProvider returns a provider at t=1000 with retired terminated
// instances followed by two running on-demand ones.
func retiredProvider(t *testing.T, retired int) (*sim.Engine, *Provider) {
	t.Helper()
	eng, p := newTestProvider(t)
	for i := 0; i < retired; i++ {
		in, err := p.RequestOnDemand(mLarge, Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Terminate(in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := p.RequestOnDemand(mLarge, Callbacks{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(1000)
	return eng, p
}

// TestSnapshotIsLive: a snapshot copies only the instances that can still
// change, so its cost does not grow with the provider's history, and the
// providers restored from one snapshot share nothing they can write.
func TestSnapshotIsLive(t *testing.T) {
	_, few := retiredProvider(t, 10)
	eng, many := retiredProvider(t, 1000)
	small, large := snapshotBytes(t, few), snapshotBytes(t, many)
	if large > small+64 {
		t.Fatalf("snapshot allocates %.0f bytes with 1000 retired instances, %.0f with 10", large, small)
	}

	s, ok := many.Snapshot()
	if !ok {
		t.Fatal("provider not quiescent")
	}
	restore := func() *Provider {
		p, err := RestoreProvider(sim.NewEngineAt(eng.Now()), many.Markets(), fixedParams(), s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := restore(), restore()
	live0, live1 := InstanceID(1000), InstanceID(1001)
	if a.Instance(live0) == b.Instance(live0) || a.Instance(live0) == many.Instance(live0) {
		t.Fatal("restored providers share a live instance")
	}
	if a.Instance(0) != many.Instance(0) || b.Instance(0) != many.Instance(0) {
		t.Fatal("restored providers copied a terminated instance")
	}

	// Drive a apart from the pilot: terminate one live instance and launch
	// another. b and the pilot must run on exactly as if a did not exist.
	if err := a.Terminate(a.Instance(live0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RequestOnDemand(mSmall, Callbacks{}); err != nil {
		t.Fatal(err)
	}
	a.Engine().RunUntil(4 * sim.Hour)
	b.Engine().RunUntil(4 * sim.Hour)
	eng.RunUntil(4 * sim.Hour)
	if b.Instance(1002) != nil || many.Instance(1002) != nil {
		t.Fatal("an instance launched in one restored provider shows in another")
	}
	for _, id := range []InstanceID{live0, live1} {
		in, want := b.Instance(id), many.Instance(id)
		if in.State() != Running || in.Charged() != want.Charged() {
			t.Fatalf("restored %v charged %v, pilot %v charged %v", in, in.Charged(), want, want.Charged())
		}
	}
	if b.Billed() != many.Billed() || a.Billed() == b.Billed() {
		t.Fatalf("billed: a %v, b %v, pilot %v", a.Billed(), b.Billed(), many.Billed())
	}
}

// snapScriptOp is one step of FuzzSnapshotRestore's workload: at time at,
// request a spot (bid > 0) or on-demand instance in market, or, when
// kill >= 0, terminate instance kill if it is not terminated yet.
type snapScriptOp struct {
	at     sim.Time
	market market.ID
	bid    float64
	kill   InstanceID
}

// apply runs the op against p.
func (op snapScriptOp) apply(p *Provider) {
	switch {
	case op.kill >= 0:
		if in := p.Instance(op.kill); in != nil && in.State() != Terminated {
			_ = p.Terminate(in)
		}
	case op.bid > 0:
		_, _ = p.RequestSpot(op.market, op.bid, Callbacks{})
	default:
		_, _ = p.RequestOnDemand(op.market, Callbacks{})
	}
}

// sameInstance reports whether two instances agree on every model field,
// floats bit for bit.
func sameInstance(a, b *Instance) bool {
	bits := math.Float64bits
	return a.id == b.id && a.market == b.market && a.lifecycle == b.lifecycle &&
		bits(a.bid) == bits(b.bid) && a.state == b.state &&
		bits(a.runningAt) == bits(b.runningAt) && bits(a.terminatedAt) == bits(b.terminatedAt) &&
		bits(a.warnDeadline) == bits(b.warnDeadline) && a.reason == b.reason &&
		bits(a.lastHourAt) == bits(b.lastHourAt) && bits(a.lastHourCost) == bits(b.lastHourCost) &&
		bits(a.charged) == bits(b.charged)
}

// FuzzSnapshotRestore checks that a restored provider's future is the
// original's. The input seeds a request/terminate script over a volatile
// universe and picks the instant to snapshot at (the first quiescent
// probe from there). The original runs the whole script to the horizon;
// only then is the snapshot restored, so any write the original made into
// state the snapshot shares shows up. The restored provider runs the rest
// of the script, and every instance and the bill must match bit for bit.
func FuzzSnapshotRestore(f *testing.F) {
	mcfg := market.DefaultConfig(5)
	mcfg.Horizon = 3 * sim.Day
	mcfg.SpikesPerDay = 8
	set, err := market.Generate(mcfg)
	if err != nil {
		f.Fatal(err)
	}
	ids := set.IDs()
	const horizon = 3 * sim.Day

	f.Add(uint64(1), uint8(40), uint16(20000))
	f.Add(uint64(2), uint8(200), uint16(50000))
	f.Add(uint64(3), uint8(5), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, cut uint16) {
		rng := randx.Derive(int64(seed), "fuzz/snapshot")
		script := make([]snapScriptOp, n)
		for i := range script {
			op := snapScriptOp{at: rng.Uniform(0, horizon), kill: -1}
			op.market = ids[int(rng.Uniform(0, float64(len(ids))))]
			switch u := rng.Uniform(0, 1); {
			case u < 0.3:
				op.kill = InstanceID(rng.Uniform(0, float64(i+1)))
			case u < 0.75:
				op.bid = set.OnDemand(op.market) * rng.Uniform(0.3, 3)
			}
			script[i] = op
		}

		eng := sim.NewEngine()
		orig := NewProvider(eng, set, DefaultParams(int64(seed)))
		for _, op := range script {
			eng.Schedule(op.at, func() { op.apply(orig) })
		}
		var snap *Snapshot
		for at := float64(cut) / math.MaxUint16 * horizon; at < horizon; at += 300.5 {
			eng.RunUntil(at)
			if s, ok := orig.Snapshot(); ok {
				snap = s
				break
			}
		}
		if snap == nil {
			return
		}
		eng.RunUntil(horizon)

		// The rest of the script goes onto the new engine before the
		// restore re-arms the provider's events, so its ops keep their
		// place ahead of them in any tie, as on the original engine.
		eng2 := sim.NewEngineAt(snap.at)
		var restored *Provider
		var err error
		for _, op := range script {
			if op.at > snap.at {
				eng2.Schedule(op.at, func() { op.apply(restored) })
			}
		}
		restored, err = RestoreProvider(eng2, set, DefaultParams(int64(seed)), snap)
		if err != nil {
			t.Fatal(err)
		}
		eng2.RunUntil(horizon)

		if len(restored.instances) != len(orig.instances) {
			t.Fatalf("restored provider made %d instances, original %d", len(restored.instances), len(orig.instances))
		}
		for id, in := range orig.instances {
			if got := restored.instances[id]; !sameInstance(got, in) {
				t.Fatalf("snapshot at t=%v: restored %+v, original %+v", snap.at, *got, *in)
			}
		}
		if math.Float64bits(restored.Billed()) != math.Float64bits(orig.Billed()) {
			t.Fatalf("snapshot at t=%v: restored billed %v, original %v", snap.at, restored.Billed(), orig.Billed())
		}
	})
}
