package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/scenario"
	"spothost/internal/sim"
)

func testSpec(seed int64, days float64) Spec {
	return Spec{Seed: seed, Days: days, Fleet: scenario.FleetDef{Strategy: "diversified"}}
}

// waitState polls the fleet's snapshot until it reaches the wanted state.
func waitState(t *testing.T, p *Plane, tenant, name string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := p.Snapshot(tenant, name)
		if err != nil {
			t.Fatalf("Snapshot(%s/%s): %v", tenant, name, err)
		}
		if s.State == want {
			return s
		}
		if s.State == StateFailed && want != StateFailed {
			t.Fatalf("fleet %s/%s failed: %s", tenant, name, s.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet %s/%s stuck in %q, want %q", tenant, name, s.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// standaloneReport runs the spec the way the one-shot path would: same
// universe cache, same cloud params, same fleet config.
func standaloneReport(t *testing.T, spec Spec) fleet.Report {
	t.Helper()
	horizon := spec.Days * sim.Day
	fcfg, err := spec.Fleet.Config(horizon, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := market.DefaultConfig(spec.Seed)
	mcfg.Horizon = horizon
	set, err := market.SharedCache().Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(set, cloud.DefaultParams(spec.Seed), fcfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStreamMatchesStandaloneRun is the determinism contract: a fleet
// advanced by the sharded runtime in uneven 7-hour slices, snapshotted
// concurrently the whole way, must stream a final record whose report is
// byte-identical to a standalone fleet.Run of the same spec and seed.
func TestStreamMatchesStandaloneRun(t *testing.T) {
	p := New(Config{Shards: 3, Slice: 7 * sim.Hour})
	defer p.Close()

	spec := testSpec(11, 3)
	if _, err := p.Register("acme", "web", spec); err != nil {
		t.Fatal(err)
	}

	// Hammer snapshots while the run advances: reading must not perturb
	// the simulation (the byte comparison below would catch it).
	stop := make(chan struct{})
	var snaps atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := p.Snapshot("acme", "web"); err == nil {
					snaps.Add(1)
				}
			}
		}
	}()

	st, err := p.Stream("acme", "web")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var lines [][]byte
	for {
		recs, done, err := st.Next(ctx)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		lines = append(lines, recs...)
		if done {
			break
		}
	}
	close(stop)

	if len(lines) < int(spec.Days) {
		t.Fatalf("got %d stream records, want at least %g (one per day)", len(lines), spec.Days)
	}
	want := standaloneReport(t, spec)
	wantLine, err := json.Marshal(StreamRecord{
		Tenant:   "acme",
		Name:     "web",
		Day:      3,
		SimHours: 72,
		Done:     true,
		Report:   &want,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.TrimRight(lines[len(lines)-1], "\n")
	if !bytes.Equal(got, wantLine) {
		t.Errorf("final stream record differs from standalone run\n got: %s\nwant: %s", got, wantLine)
	}

	// The terminal snapshot carries the same report.
	s := waitState(t, p, "acme", "web", StateDone)
	gotSnap, err := json.Marshal(s.Report)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("snapshot report differs from standalone run\n got: %s\nwant: %s", gotSnap, wantSnap)
	}
	if snaps.Load() == 0 {
		t.Error("snapshot hammer never completed a read")
	}

	// A late subscriber replays the full history.
	late, err := p.Stream("acme", "web")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	recs, done, err := late.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !done || len(recs) != len(lines) {
		t.Errorf("late subscriber got %d records (done=%v), want %d (done=true)", len(recs), done, len(lines))
	}
}

// TestRegisterValidation covers the 400-class rejections: they are plain
// errors, never CapacityError, and leave the registry untouched.
func TestRegisterValidation(t *testing.T) {
	p := New(Config{Shards: 1})
	defer p.Close()

	cases := []struct {
		name         string
		tenant, flt  string
		spec         Spec
		wantContains string
	}{
		{"empty tenant", "", "f", testSpec(1, 1), "required"},
		{"empty name", "t", "", testSpec(1, 1), "required"},
		{"zero days", "t", "f", testSpec(1, 0), "positive"},
		{"negative days", "t", "f", testSpec(1, -3), "positive"},
		{"days over cap", "t", "f", testSpec(1, 91), "at most"},
		{"bad strategy", "t", "f", Spec{Seed: 1, Days: 1, Fleet: scenario.FleetDef{Strategy: "bogus"}}, "unknown strategy"},
		{"bad market", "t", "f", Spec{Seed: 1, Days: 1, Fleet: scenario.FleetDef{Markets: []string{"nowhere"}}}, "market"},
		{"peak below base", "t", "f", Spec{Seed: 1, Days: 1, Fleet: scenario.FleetDef{BaseLoad: 100, PeakLoad: 50}}, "peak_load below base_load"},
		{"negative tick", "t", "f", Spec{Seed: 1, Days: 1, Fleet: scenario.FleetDef{TickMinutes: -3}}, "negative parameter"},
		{"tick below one", "t", "f", Spec{Seed: 1, Days: 1, Fleet: scenario.FleetDef{TickMinutes: 0.001}}, "tick_minutes"},
		{"too many replicas", "t", "f", Spec{Seed: 1, Days: 1, Fleet: scenario.FleetDef{MaxReplicas: 65}}, "max_replicas"},
	}
	for _, tc := range cases {
		_, err := p.Register(tc.tenant, tc.flt, tc.spec)
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		// Register runs the scenario file's fleet checks, not a subset.
		if verr := tc.spec.Fleet.Validate(); verr != nil && !strings.Contains(err.Error(), verr.Error()) {
			t.Errorf("%s: error %q does not carry Validate's %q", tc.name, err, verr)
		}
		var ce *CapacityError
		if errors.As(err, &ce) {
			t.Errorf("%s: got CapacityError %v, want plain validation error", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantContains) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantContains)
		}
	}
	if st := p.Stats(); st.Registered != 0 {
		t.Errorf("validation failures registered %d fleets", st.Registered)
	}

	if _, err := p.Register("t", "dup", testSpec(1, 90)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("t", "dup", testSpec(2, 1)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate registration: got %v, want ErrExists", err)
	}
	if err := p.Unregister("t", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Unregister(ghost): got %v, want ErrNotFound", err)
	}
	if _, err := p.Snapshot("t", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Snapshot(ghost): got %v, want ErrNotFound", err)
	}
}

// TestQuotaAndRetryAfter: a tenant at quota is rejected with a
// CapacityError whose Retry-After is at least a second, and unregistering
// frees the slot immediately.
func TestQuotaAndRetryAfter(t *testing.T) {
	p := New(Config{Shards: 1, TenantQuota: 2, Slice: sim.Hour})
	defer p.Close()

	// Long horizons so the fleets are still resident when we probe.
	if _, err := p.Register("a", "f1", testSpec(1, 90)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("a", "f2", testSpec(2, 90)); err != nil {
		t.Fatal(err)
	}
	_, err := p.Register("a", "f3", testSpec(3, 90))
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("over-quota registration: got %v, want CapacityError", err)
	}
	if ce.RetryAfterSeconds < 1 || ce.RetryAfterSeconds > 120 {
		t.Errorf("RetryAfterSeconds = %d, want in [1, 120]", ce.RetryAfterSeconds)
	}
	if !strings.Contains(ce.Error(), "quota") {
		t.Errorf("error %q does not mention quota", ce)
	}

	// Another tenant is unaffected by a's quota.
	if _, err := p.Register("b", "f1", testSpec(4, 90)); err != nil {
		t.Fatalf("tenant b blocked by tenant a's quota: %v", err)
	}

	if err := p.Unregister("a", "f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("a", "f3", testSpec(3, 90)); err != nil {
		t.Errorf("register after unregister freed quota: %v", err)
	}

	st := p.Stats()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if got := st.TenantFleets["a"]; got != 2 {
		t.Errorf("TenantFleets[a] = %d, want 2", got)
	}
	if ra := p.RetryAfterSeconds(); ra < 1 || ra > 120 {
		t.Errorf("RetryAfterSeconds() = %d, want in [1, 120]", ra)
	}
}

// TestCapacityEviction: at MaxFleets, a finished fleet is evicted LRU to
// admit the newcomer; with nothing finished the registration is refused
// with a CapacityError.
func TestCapacityEviction(t *testing.T) {
	p := New(Config{Shards: 1, MaxFleets: 2, Slice: sim.Day})
	defer p.Close()

	// Fill the plane with one fast fleet (finishes in one slice) and one
	// long one.
	if _, err := p.Register("a", "fast", testSpec(1, 1)); err != nil {
		t.Fatal(err)
	}
	waitState(t, p, "a", "fast", StateDone)
	if _, err := p.Register("a", "slow", testSpec(2, 90)); err != nil {
		t.Fatal(err)
	}

	// At capacity with one finished fleet: the newcomer evicts it.
	if _, err := p.Register("a", "next", testSpec(3, 90)); err != nil {
		t.Fatalf("register at capacity with an evictable fleet: %v", err)
	}
	if _, err := p.Snapshot("a", "fast"); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted fleet still visible: %v", err)
	}

	// At capacity with nothing finished: refused with backpressure.
	_, err := p.Register("a", "more", testSpec(4, 90))
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("register at capacity with nothing evictable: got %v, want CapacityError", err)
	}
	if !strings.Contains(ce.Reason, "capacity") {
		t.Errorf("reason %q does not mention capacity", ce.Reason)
	}

	st := p.Stats()
	if st.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", st.Evicted)
	}
	if st.Registered != 2 {
		t.Errorf("Registered = %d, want 2", st.Registered)
	}
}

// TestStreamDisconnectFreesSlot proves a mid-stream consumer going away
// (its context canceled, then Close) releases the subscription slot.
func TestStreamDisconnectFreesSlot(t *testing.T) {
	p := New(Config{Shards: 1, Slice: sim.Hour})
	defer p.Close()
	if _, err := p.Register("t", "f", testSpec(1, 90)); err != nil {
		t.Fatal(err)
	}

	st, err := p.Stream("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := p.Snapshot("t", "f"); s.Subscribers != 1 {
		t.Fatalf("Subscribers = %d after Stream, want 1", s.Subscribers)
	}
	if got := p.Stats().Streams; got != 1 {
		t.Fatalf("Stats().Streams = %d, want 1", got)
	}

	// A consumer blocked in Next whose connection drops: its context is
	// canceled, Next returns, and the handler closes the stream.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		for {
			_, done, err := st.Next(ctx)
			if err != nil || done {
				errc <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the reader drain history and block
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after disconnect: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream reader did not observe the disconnect")
	}
	st.Close()
	st.Close() // idempotent

	if s, _ := p.Snapshot("t", "f"); s.Subscribers != 0 {
		t.Errorf("Subscribers = %d after Close, want 0", s.Subscribers)
	}
	if got := p.Stats().Streams; got != 0 {
		t.Errorf("Stats().Streams = %d after Close, want 0", got)
	}
}

// TestUnregisterEndsStream: dropping a fleet terminates its open streams
// rather than leaving them blocked.
func TestUnregisterEndsStream(t *testing.T) {
	p := New(Config{Shards: 1, Slice: sim.Hour})
	defer p.Close()
	if _, err := p.Register("t", "f", testSpec(1, 90)); err != nil {
		t.Fatal(err)
	}
	st, err := p.Stream("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	donec := make(chan struct{})
	go func() {
		defer close(donec)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for {
			_, done, err := st.Next(ctx)
			if err != nil {
				t.Errorf("stream: %v", err)
				return
			}
			if done {
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := p.Unregister("t", "f"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-donec:
	case <-time.After(5 * time.Second):
		t.Fatal("stream reader not released by Unregister")
	}
}

// TestCloseReleasesEverything: Close cancels in-flight slices, refuses new
// registrations, and unblocks stream readers.
func TestCloseReleasesEverything(t *testing.T) {
	p := New(Config{Shards: 2, Slice: sim.Hour})
	if _, err := p.Register("t", "f", testSpec(1, 90)); err != nil {
		t.Fatal(err)
	}
	st, err := p.Stream("t", "f")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		for {
			_, done, err := st.Next(context.Background())
			if err != nil || done {
				errc <- err
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	p.Close()
	p.Close() // idempotent
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("stream after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream reader not released by Close")
	}
	st.Close()
	if _, err := p.Register("t", "g", testSpec(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close: got %v, want ErrClosed", err)
	}
	// State remains readable after Close.
	if _, err := p.Snapshot("t", "f"); err != nil {
		t.Errorf("Snapshot after Close: %v", err)
	}
}

// TestConcurrentOps is the race test: registrations, snapshots, lists,
// streams, unregistrations, and stats from many goroutines across shards.
// Run with -race.
func TestConcurrentOps(t *testing.T) {
	p := New(Config{Shards: 4, Slice: 6 * sim.Hour, MaxFleets: 64, TenantQuota: 16})
	defer p.Close()

	const goroutines = 6
	const perG = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g)
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("f%d", i)
				if _, err := p.Register(tenant, name, testSpec(int64(i%3), 1)); err != nil {
					var ce *CapacityError
					if !errors.As(err, &ce) {
						t.Errorf("register %s/%s: %v", tenant, name, err)
					}
					continue
				}
				if _, err := p.Snapshot(tenant, name); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("snapshot %s/%s: %v", tenant, name, err)
				}
				p.List(tenant)
				if st, err := p.Stream(tenant, name); err == nil {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
					_, _, _ = st.Next(ctx)
					cancel()
					st.Close()
				}
				if i%2 == 0 {
					if err := p.Unregister(tenant, name); err != nil {
						t.Errorf("unregister %s/%s: %v", tenant, name, err)
					}
				}
			}
		}(g)
	}
	// Stats and backpressure probes race the mutators.
	statsStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-statsStop:
				return
			default:
				p.Stats()
				p.RetryAfterSeconds()
			}
		}
	}()
	wg.Wait()
	close(statsStop)

	// Everything left registered eventually completes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.Stats()
		if st.Active == 0 {
			if st.Failed != 0 {
				t.Fatalf("%d fleets failed", st.Failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleets stuck active: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScaleManyFleets registers scaleFleets fleets (10k; reduced under
// -race) across the default shard count and waits for all of them to
// complete, verifying round-robin progress and bounded memory via shared
// universes. Slices are 6 simulated hours so every fleet is time-sliced
// through multiple scheduling rounds.
func TestScaleManyFleets(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	n := scaleFleets
	p := New(Config{MaxFleets: n, TenantQuota: n, Slice: 6 * sim.Hour})
	defer p.Close()

	spec := testSpec(3, 1) // one shared universe across all fleets
	for i := 0; i < n; i++ {
		if _, err := p.Register("scale", fmt.Sprintf("f%05d", i), spec); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if st := p.Stats(); st.Registered != n {
		t.Fatalf("Registered = %d, want %d", st.Registered, n)
	}

	deadline := time.Now().Add(5 * time.Minute)
	for {
		st := p.Stats()
		if st.Done+st.Failed == n {
			if st.Failed != 0 {
				t.Fatalf("%d fleets failed", st.Failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scale run stalled: %d/%d done", st.Done+st.Failed, n)
		}
		time.Sleep(25 * time.Millisecond)
	}

	st := p.Stats()
	if st.StepsTotal < uint64(n)*4 {
		t.Errorf("StepsTotal = %d, want >= %d (4 six-hour slices per fleet)", st.StepsTotal, n*4)
	}
	wantSim := float64(n) * float64(sim.Day)
	if st.SimSecondsTotal < wantSim {
		t.Errorf("SimSecondsTotal = %g, want >= %g", st.SimSecondsTotal, wantSim)
	}
	// Work is spread over every shard.
	for i, sh := range st.Shards {
		if sh.Steps == 0 {
			t.Errorf("shard %d did no work", i)
		}
	}
	// Spot-check a fleet: terminal report present, records streamed.
	s, err := p.Snapshot("scale", "f00000")
	if err != nil {
		t.Fatal(err)
	}
	if s.Report == nil || s.Records == 0 || s.State != StateDone {
		t.Errorf("spot-check snapshot incomplete: state=%q records=%d report=%v",
			s.State, s.Records, s.Report != nil)
	}
}
