package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

func steppedTestConfig(t *testing.T, horizon sim.Duration, seed int64) Config {
	t.Helper()
	demand, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, seed))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Strategy: Diversified{},
		Demand:   demand,
		Planner:  LinearPlanner{PerReplica: 150},
	}
}

// TestSteppedRunByteIdentity drives the same fleet twice — once in a
// single maximal Step (the Run path) and once in deliberately uneven
// slices with a report snapshot taken after every slice — and requires the
// final reports to be byte-identical under JSON encoding. This is the
// contract the control plane's streaming results rest on: slicing and
// snapshotting must be observationally invisible.
func TestSteppedRunByteIdentity(t *testing.T) {
	const seed = 5
	horizon := 10 * sim.Day
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = horizon
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}

	oneShot, err := Run(set, cloud.DefaultParams(seed), steppedTestConfig(t, horizon, seed), horizon)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSimObs(set, cloud.DefaultParams(seed), steppedTestConfig(t, horizon, seed), horizon, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven, non-day-aligned slices, including a zero-width one.
	slices := []sim.Duration{
		7 * sim.Hour, 30 * sim.Minute, 0, 13 * sim.Hour, sim.Day, 90 * sim.Minute,
	}
	ctx := context.Background()
	var until sim.Time
	steps := 0
	for done := false; !done; {
		until += slices[steps%len(slices)]
		var err error
		done, err = s.Step(ctx, until)
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Report() // mid-run snapshots must not perturb the run
		steps++
		if done && s.Now() != horizon {
			t.Fatalf("finished at %v, want %v", s.Now(), horizon)
		}
	}
	if steps < 10 {
		t.Fatalf("run finished in %d slices; slices too coarse to exercise resume", steps)
	}
	if done, err := s.Step(ctx, until+sim.Day); err != nil || !done {
		t.Fatalf("Step after done = (%v, %v), want (true, nil)", done, err)
	}

	want, err := json.Marshal(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(s.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stepped report differs from one-shot run\n got: %s\nwant: %s", got, want)
	}
}
