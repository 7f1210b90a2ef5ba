package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
)

// TestTimelinePublished drives one fleet to completion on a telemetry-
// enabled plane and checks the published timeline and ledger against a
// standalone obs-instrumented run of the same spec: same series
// integrals, same number of decisions, schema-stamped ledger lines.
func TestTimelinePublished(t *testing.T) {
	col := obs.NewAggregateCollector(obs.Config{})
	p := New(Config{Shards: 2, Slice: 7 * sim.Hour, Obs: col})
	defer p.Close()

	spec := testSpec(3, 4)
	if _, err := p.Register("acme", "web", spec); err != nil {
		t.Fatal(err)
	}
	waitState(t, p, "acme", "web", StateDone)

	tl, ledger, err := p.Timeline("acme", "web")
	if err != nil {
		t.Fatal(err)
	}
	if tl.Schema != obs.TimelineSchema {
		t.Fatalf("timeline schema = %d, want %d", tl.Schema, obs.TimelineSchema)
	}
	if len(tl.Series) < 9 {
		t.Fatalf("timeline has %d series, want at least the 9 fixed ones", len(tl.Series))
	}
	if tl.Decisions == 0 || len(ledger) != tl.Decisions {
		t.Fatalf("published %d ledger lines, timeline counts %d decisions", len(ledger), tl.Decisions)
	}
	for _, line := range ledger {
		var d obs.Decision
		if err := json.Unmarshal(line, &d); err != nil {
			t.Fatalf("bad ledger line %q: %v", line, err)
		}
		if d.Schema != obs.LedgerSchema || d.Action == "" {
			t.Fatalf("ledger line missing schema/action: %+v", d)
		}
	}

	// The standalone comparison run: same universe, same config, its own
	// recorder.
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
	ob := obs.NewRecorder("x", obs.Config{})
	if _, err := fleet.RunObsCtx(context.Background(), set, cloud.DefaultParams(spec.Seed), fcfg, horizon, nil, ob); err != nil {
		t.Fatal(err)
	}
	want := ob.SnapshotFinal()
	if len(want.Series) != len(tl.Series) {
		t.Fatalf("plane timeline has %d series, standalone %d", len(tl.Series), len(want.Series))
	}
	for i := range want.Series {
		a, b := tl.Series[i], want.Series[i]
		if a.Name != b.Name || math.Abs(a.Integral-b.Integral) > 1e-9*(1+math.Abs(b.Integral)) {
			t.Fatalf("series %s: plane integral %g, standalone %s %g", a.Name, a.Integral, b.Name, b.Integral)
		}
	}
	if len(ledger) != len(ob.Ledger()) {
		t.Fatalf("plane ledger %d records, standalone %d", len(ledger), len(ob.Ledger()))
	}

	// Finished recorders rolled into the collector's /metrics totals.
	var buf bytes.Buffer
	col.WritePrometheus(&buf, "spotserve")
	if !strings.Contains(buf.String(), "spotserve_obs_runs_total 1") {
		t.Fatalf("collector missed the finished run:\n%s", buf.String())
	}
}

// TestDoneImpliesRetired pins the finish order of a run: by the time its
// done state is visible, its telemetry recorder is counted by the
// collector and its eviction stamp is set. The shard once published
// StateDone first, so a reader could see a done fleet that /metrics did
// not count yet (and eviction could meet a terminal run with doneSeq 0).
// The hook inspects every run on the shard goroutine right after each
// publish, so the old order fails on every run rather than by chance.
func TestDoneImpliesRetired(t *testing.T) {
	col := obs.NewAggregateCollector(obs.Config{})
	var (
		mu       sync.Mutex
		finished int
		problems []string
	)
	afterPublish = func(r *run) {
		if r.snapshot().State != StateDone {
			return
		}
		r.mu.Lock()
		seq := r.doneSeq
		r.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		finished++
		var buf bytes.Buffer
		col.WritePrometheus(&buf, "spotserve")
		if want := fmt.Sprintf("spotserve_obs_runs_total %d\n", finished); !strings.Contains(buf.String(), want) {
			problems = append(problems, fmt.Sprintf("%s done but collector not at %q", r.name, strings.TrimSpace(want)))
		}
		if seq == 0 {
			problems = append(problems, fmt.Sprintf("%s done with doneSeq 0", r.name))
		}
	}
	p := New(Config{Shards: 1, Slice: 7 * sim.Hour, Obs: col})
	defer func() {
		p.Close() // stops the shard goroutine before the hook is cleared
		afterPublish = nil
	}()

	names := []string{"a", "b", "c"}
	for i, name := range names {
		if _, err := p.Register("acme", name, testSpec(int64(i+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		waitState(t, p, "acme", name, StateDone)
	}
	// The hook runs just after the publish that waitState observes; once
	// Close has stopped the shard goroutine, every hook call has returned.
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if finished != len(names) {
		t.Fatalf("hook saw %d runs finish, want %d", finished, len(names))
	}
	if len(problems) > 0 {
		t.Fatal(strings.Join(problems, "\n"))
	}
}

// TestTimelineDisabled pins the off switch: a plane without a collector
// refuses timeline reads with ErrNoObs and runs fleets untouched.
func TestTimelineDisabled(t *testing.T) {
	p := New(Config{Shards: 1})
	defer p.Close()
	if _, err := p.Register("acme", "web", testSpec(1, 1)); err != nil {
		t.Fatal(err)
	}
	waitState(t, p, "acme", "web", StateDone)
	if _, _, err := p.Timeline("acme", "web"); !errors.Is(err, ErrNoObs) {
		t.Fatalf("Timeline on obs-less plane = %v, want ErrNoObs", err)
	}
	if _, _, err := p.Timeline("acme", "nope"); !errors.Is(err, ErrNoObs) {
		t.Fatalf("ErrNoObs must win over lookup: got %v", err)
	}
}

func TestTimelineUnknownFleet(t *testing.T) {
	p := New(Config{Shards: 1, Obs: obs.NewAggregateCollector(obs.Config{})})
	defer p.Close()
	if _, _, err := p.Timeline("acme", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Timeline(unknown) = %v, want ErrNotFound", err)
	}
}

// TestTenantGaugeDropsOnRemoval is the staleness regression test: once a
// tenant's last fleet is unregistered or evicted, the per-tenant fleet
// gauge must disappear from Stats (and hence from /metrics) rather than
// exporting a zero-valued series forever.
func TestTenantGaugeDropsOnRemoval(t *testing.T) {
	p := New(Config{Shards: 1, MaxFleets: 2})
	defer p.Close()

	if _, err := p.Register("acme", "web", testSpec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("globex", "api", testSpec(2, 1)); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().TenantFleets["acme"]; n != 1 {
		t.Fatalf("acme gauge = %d, want 1", n)
	}

	// Unregistration frees the label immediately.
	if err := p.Unregister("acme", "web"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Stats().TenantFleets["acme"]; ok {
		t.Fatal("unregistered tenant still exported in TenantFleets")
	}

	// Eviction at capacity frees the evicted tenant's label too.
	waitState(t, p, "globex", "api", StateDone)
	if _, err := p.Register("hooli", "web", testSpec(3, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("initech", "web", testSpec(4, 1)); err != nil {
		t.Fatal(err) // at MaxFleets=2 this must evict globex's finished fleet
	}
	st := p.Stats()
	if _, ok := st.TenantFleets["globex"]; ok {
		t.Fatal("evicted tenant still exported in TenantFleets")
	}
	if st.TenantFleets["hooli"] != 1 || st.TenantFleets["initech"] != 1 {
		t.Fatalf("surviving tenants wrong: %v", st.TenantFleets)
	}

	// Rendered form: only live tenants appear.
	var buf bytes.Buffer
	st.WritePrometheus(&buf, "spotserve")
	out := buf.String()
	for _, gone := range []string{`tenant="acme"`, `tenant="globex"`} {
		if strings.Contains(out, gone) {
			t.Fatalf("stale series %s still rendered:\n%s", gone, out)
		}
	}
	if !strings.Contains(out, `spotserve_cp_tenant_fleets{tenant="hooli"} 1`) {
		t.Fatalf("live tenant missing:\n%s", out)
	}
}
