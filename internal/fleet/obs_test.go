package fleet

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
)

// obsSeriesByName indexes a timeline's series for assertions.
func obsSeriesByName(tl obs.Timeline) map[string]obs.SeriesData {
	out := map[string]obs.SeriesData{}
	for _, sd := range tl.Series {
		out[sd.Name] = sd
	}
	return out
}

// relClose reports whether two sums agree to a tiny relative tolerance
// (the timeline re-sums the same float additions in bucket order, so
// only associativity-level drift is acceptable).
func relClose(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= 1e-9*scale
}

// TestObsTimelineMatchesReport is the downsampling soundness property:
// however coarse the merged buckets get, the timeline integrals must
// reproduce the exact accounting sums of the fleet report — total cost
// from the billing ledger, served/target replica-seconds from the
// controller, and shortfall as their difference — across random fleets
// and seeds.
func TestObsTimelineMatchesReport(t *testing.T) {
	horizon := 6 * sim.Day
	for _, seed := range []int64{3, 17, 42} {
		for _, strat := range []Strategy{LowestPrice{}, Diversified{}} {
			mcfg := market.DefaultConfig(seed)
			mcfg.Horizon = horizon
			set, err := market.Generate(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := steppedTestConfig(t, horizon, seed)
			cfg.Strategy = strat
			// A tight budget forces several compactions over six days.
			ob := obs.NewRecorder("t", obs.Config{Budget: 64, Width: 300})
			rep, err := RunObsCtx(context.Background(), set, cloud.DefaultParams(seed), cfg, horizon, nil, ob)
			if err != nil {
				t.Fatal(err)
			}
			by := obsSeriesByName(ob.SnapshotFinal())
			if got, want := by["cost_dollars"].Integral, rep.Cost; !relClose(got, want) {
				t.Fatalf("seed %d %s: cost integral %g != report cost %g", seed, strat.Name(), got, want)
			}
			if got, want := by["served_units"].Integral, rep.ServedReplicaSeconds; !relClose(got, want) {
				t.Fatalf("seed %d %s: served integral %g != %g", seed, strat.Name(), got, want)
			}
			if got, want := by["target_units"].Integral, rep.TargetReplicaSeconds; !relClose(got, want) {
				t.Fatalf("seed %d %s: target integral %g != %g", seed, strat.Name(), got, want)
			}
			wantSf := rep.TargetReplicaSeconds - rep.ServedReplicaSeconds
			if got := by["shortfall_units"].Integral; !relClose(got, wantSf) {
				t.Fatalf("seed %d %s: shortfall integral %g != %g", seed, strat.Name(), got, wantSf)
			}
			// Per-market spend partitions total cost.
			var spend float64
			for name, sd := range by {
				if len(name) > 6 && name[:6] == "spend:" {
					spend += sd.Integral
				}
			}
			if !relClose(spend, rep.Cost) {
				t.Fatalf("seed %d %s: per-market spend %g != cost %g", seed, strat.Name(), spend, rep.Cost)
			}
			if got, want := by["launches"].Integral, float64(rep.Launches); got != want {
				t.Fatalf("seed %d %s: launches %g != %g", seed, strat.Name(), got, want)
			}
		}
	}
}

// TestObsToggleByteIdentical pins the observer effect away: attaching a
// telemetry recorder must not change the simulation. The report with obs
// on must be byte-identical (under JSON encoding) to the report with obs
// off.
func TestObsToggleByteIdentical(t *testing.T) {
	const seed = 9
	horizon := 8 * sim.Day
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = horizon
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(set, cloud.DefaultParams(seed), steppedTestConfig(t, horizon, seed), horizon)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.NewRecorder("t", obs.Config{})
	on, err := RunObsCtx(context.Background(), set, cloud.DefaultParams(seed),
		steppedTestConfig(t, horizon, seed), horizon, nil, ob)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("obs-on report differs from obs-off:\noff: %s\non:  %s", a, b)
	}
	if len(ob.Ledger()) == 0 {
		t.Fatal("obs-on run recorded no decisions")
	}
}

// TestObsLedgerJustifications checks the ledger carries the justifying
// inputs: every record is schema-stamped, launch-classed, and quotes the
// envelope argmin and quota state of its decision instant.
func TestObsLedgerJustifications(t *testing.T) {
	const seed = 11
	horizon := 6 * sim.Day
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = horizon
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.NewRecorder("t", obs.Config{})
	rep, err := RunObsCtx(context.Background(), set, cloud.DefaultParams(seed),
		steppedTestConfig(t, horizon, seed), horizon, nil, ob)
	if err != nil {
		t.Fatal(err)
	}
	ds := ob.Ledger()
	if len(ds) != rep.Launches {
		t.Fatalf("ledger has %d records, report counted %d launches", len(ds), rep.Launches)
	}
	classes := map[string]bool{}
	var last float64
	for _, d := range ds {
		if d.Schema != obs.LedgerSchema {
			t.Fatalf("record missing schema stamp: %+v", d)
		}
		if d.At < last {
			t.Fatalf("ledger out of order: %g after %g", d.At, last)
		}
		last = d.At
		switch d.Action {
		case "spot", "reverse", "rebalance", "downsize":
			if d.Bid <= 0 || d.Price <= 0 {
				t.Fatalf("spot-class record without bid/price: %+v", d)
			}
		case "on-demand", "bridge":
			if d.Bid != 0 {
				t.Fatalf("on-demand-class record carries a bid: %+v", d)
			}
		default:
			t.Fatalf("unknown action %q", d.Action)
		}
		if d.Market == "" || d.Units <= 0 || d.TargetUnits <= 0 || d.QuotaUnits <= 0 {
			t.Fatalf("record missing justifying inputs: %+v", d)
		}
		classes[d.Action] = true
	}
	if !classes["spot"] {
		t.Fatal("no plain spot launches recorded")
	}
}

// TestObsBoundedMemory pins the fixed-memory contract: a multi-day run
// against a tiny bucket budget must never exceed it, in any series.
func TestObsBoundedMemory(t *testing.T) {
	const seed = 4
	horizon := 10 * sim.Day
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = horizon
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 16
	ob := obs.NewRecorder("t", obs.Config{Budget: budget, Width: 60})
	if _, err := RunObsCtx(context.Background(), set, cloud.DefaultParams(seed),
		steppedTestConfig(t, horizon, seed), horizon, nil, ob); err != nil {
		t.Fatal(err)
	}
	for _, sd := range ob.SnapshotFinal().Series {
		if len(sd.Buckets) > budget {
			t.Fatalf("series %s holds %d buckets, budget %d", sd.Name, len(sd.Buckets), budget)
		}
	}
}

// TestObsSteppedTimelineIdentity: telemetry must be slicing-invariant
// like the report — a run stepped in uneven slices (with mid-run
// timeline snapshots) exports the same final timeline and ledger as an
// unsliced run.
func TestObsSteppedTimelineIdentity(t *testing.T) {
	const seed = 5
	horizon := 6 * sim.Day
	mcfg := market.DefaultConfig(seed)
	mcfg.Horizon = horizon
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sliced bool) ([]byte, []byte) {
		ob := obs.NewRecorder("t", obs.Config{Budget: 64, Width: 300})
		s, err := NewSimObs(set, cloud.DefaultParams(seed), steppedTestConfig(t, horizon, seed), horizon, nil, ob)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if sliced {
			var until sim.Time
			for done := false; !done; {
				until += 7 * sim.Hour
				if done, err = s.Step(ctx, until); err != nil {
					t.Fatal(err)
				}
				_ = s.Timeline() // mid-run snapshots must not perturb the run
			}
		} else if _, err := s.Step(ctx, horizon); err != nil {
			t.Fatal(err)
		}
		tl, err := json.Marshal(ob.SnapshotFinal())
		if err != nil {
			t.Fatal(err)
		}
		var led []byte
		for _, d := range ob.Ledger() {
			if led, err = d.AppendNDJSON(led); err != nil {
				t.Fatal(err)
			}
		}
		return tl, led
	}
	tlA, ledA := run(false)
	tlB, ledB := run(true)
	if string(tlA) != string(tlB) {
		t.Fatalf("sliced timeline differs:\nunsliced: %s\nsliced:   %s", tlA, tlB)
	}
	if string(ledA) != string(ledB) {
		t.Fatal("sliced ledger differs from unsliced")
	}
}
