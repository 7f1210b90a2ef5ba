package sched

import (
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// crossRegionSet: the home region's market turns expensive (but below the
// 4x bid) at t=20000 while the other region stays cheap, so the only
// voluntary escape is a cross-region migration with a WAN disk copy.
func crossRegionSet(t *testing.T) *market.Set {
	t.Helper()
	east := market.ID{Region: "us-east-1a", Type: "small"}
	eu := market.ID{Region: "eu-west-1a", Type: "small"}
	end := sim.Time(60 * sim.Hour)
	trE, err := market.NewTrace(east, []market.Point{
		{T: 0, Price: 0.008},
		{T: 20000, Price: 0.2}, // pricier than on-demand, under the 0.24 bid
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	trU, err := market.NewTrace(eu, []market.Point{{T: 0, Price: 0.012}}, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{trE, trU},
		map[market.ID]float64{east: 0.06, eu: 0.065})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCrossRegionPlannedMigration: the scheduler escapes a hot home region
// to a calm foreign one; the move is counted as cross-region, the WAN disk
// copy stretches its duration, and live migration keeps the downtime
// sub-second.
func TestCrossRegionPlannedMigration(t *testing.T) {
	set := crossRegionSet(t)
	cfg := mustConfig(t)
	cfg.Markets = []market.ID{
		{Region: "us-east-1a", Type: "small"},
		{Region: "eu-west-1a", Type: "small"},
	}
	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, fixedCloudParams())
	s, err := New(prov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(60 * sim.Hour)
	r := s.Report()

	if r.Migrations.CrossRegion < 1 {
		t.Fatalf("no cross-region migration: %+v", r.Migrations)
	}
	if r.Migrations.Forced != 0 {
		t.Fatalf("forced migrations in a sub-bid script: %+v", r.Migrations)
	}
	// Live hand-off keeps downtime tiny despite the WAN hop.
	if r.DowntimeSeconds > 5 {
		t.Fatalf("cross-region downtime = %.1f s", r.DowntimeSeconds)
	}
	// The service ends up on the eu spot market, not on-demand: every
	// instance still alive is an eu server of the spot group.
	var alive int
	for id := cloud.InstanceID(0); prov.Instance(id) != nil; id++ {
		if in := prov.Instance(id); in.Alive() {
			alive++
			if in.Market().Region != "eu-west-1a" {
				t.Fatalf("final placement: %v", in)
			}
		}
	}
	if alive == 0 || s.group.lifecycle != cloud.Spot {
		t.Fatalf("final placement: %d alive instances, group lifecycle %v", alive, s.group.lifecycle)
	}
	if r.Cost >= r.BaselineCost {
		t.Fatalf("cost %v vs baseline %v", r.Cost, r.BaselineCost)
	}
}

// TestCrossRegionCheckpointDowntime: the same escape with the checkpoint
// mechanism pays the extra WAN increment hand-off in downtime, but still
// crosses.
func TestCrossRegionCheckpointDowntime(t *testing.T) {
	set := crossRegionSet(t)
	cfg := mustConfig(t)
	cfg.Markets = []market.ID{
		{Region: "us-east-1a", Type: "small"},
		{Region: "eu-west-1a", Type: "small"},
	}
	cfg.Mechanism = vm.CKPTLazy
	r, err := Run(set, fixedCloudParams(), cfg, 60*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations.CrossRegion < 1 {
		t.Fatalf("no cross-region migration: %+v", r.Migrations)
	}
	// Downtime = bound (3) + pre-staged resume (2) + WAN increment (3):
	// around 8 s, clearly above the live variant's sub-second hand-off.
	if r.DowntimeSeconds < 5 || r.DowntimeSeconds > 20 {
		t.Fatalf("checkpoint WAN downtime = %.1f s, want ~8 s", r.DowntimeSeconds)
	}
}
