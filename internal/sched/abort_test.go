package sched

import (
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// abortUniverse builds two markets where a planned migration from "small"
// to "medium" gets armed, and the destination market spikes above its bid
// at spikeAt — either while the destination servers are still allocating
// or after they are ready but before the hand-off completes.
func abortUniverse(t *testing.T, spikeAt sim.Time) *market.Set {
	t.Helper()
	small := market.ID{Region: "us-east-1a", Type: "small"}
	medium := market.ID{Region: "us-east-1a", Type: "medium"}
	end := sim.Time(50 * sim.Hour)
	// Small: cheap, then pricier (0.05 < od 0.06) from t=9000, making the
	// flat 0.04 medium market the best alternative at the next boundary.
	trS, err := market.NewTrace(small, []market.Point{
		{T: 0, Price: 0.01},
		{T: 9000, Price: 0.05},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	// Medium: attractive until it spikes far above its 4x bid (0.48).
	trM, err := market.NewTrace(medium, []market.Point{
		{T: 0, Price: 0.04},
		{T: spikeAt, Price: 0.60},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{trS, trM},
		map[market.ID]float64{small: 0.06, medium: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func runAbort(t *testing.T, spikeAt sim.Time) (*Scheduler, *trace.Recorder) {
	t.Helper()
	cfg := mustConfig(t)
	cfg.Service.VM.Units = 1
	cfg.Markets = []market.ID{
		{Region: "us-east-1a", Type: "small"},
		{Region: "us-east-1a", Type: "medium"},
	}
	return runRecorded(t, abortUniverse(t, spikeAt), cfg, 50*sim.Hour)
}

// abortedMigrations returns the migration spans that ended "aborted".
func abortedMigrations(rec *trace.Recorder) []trace.Span {
	var out []trace.Span
	for _, m := range spansOf(rec, trace.KindMigration) {
		if m.Note == "aborted" {
			out = append(out, m)
		}
	}
	return out
}

// Timeline landmarks (deterministic startups): the service boots on small
// at 240 s; the planned migration to medium is decided near the boundary
// at ~10650 s; medium servers are requested then and become ready ~240 s
// later (~10890); the live hand-off completes ~55 s after that.

// TestPlannedTargetRevokedWhileAllocating: the destination spike lands
// during its allocation — the pending requests are cancelled
// (never-granted) and the migration aborts without any service impact.
func TestPlannedTargetRevokedWhileAllocating(t *testing.T) {
	s, rec := runAbort(t, 10750)
	r := s.Report()

	if len(spansOf(rec, trace.KindMigration)) == 0 {
		t.Fatalf("migration never armed:\n%s", renderSpans(rec))
	}
	if len(abortedMigrations(rec)) == 0 {
		t.Fatalf("migration not aborted:\n%s", renderSpans(rec))
	}
	if r.DowntimeSeconds != 0 {
		t.Fatalf("aborted migration caused downtime: %v", r.DowntimeSeconds)
	}
	// The service never left the small spot market.
	if r.OnDemandSeconds != 0 {
		t.Fatal("service fell back to on-demand unnecessarily")
	}
	if r.Migrations.Forced != 0 {
		t.Fatalf("forced migrations: %+v", r.Migrations)
	}
}

// TestPlannedTargetRevokedBeforeHandOff: the destination spike lands after
// the destination group is ready but before the hand-off completes — the
// scheduler abandons the dying target and stays put.
func TestPlannedTargetRevokedBeforeHandOff(t *testing.T) {
	s, rec := runAbort(t, 10920)
	r := s.Report()

	if len(abortedMigrations(rec)) == 0 {
		t.Fatalf("migration not aborted:\n%s", renderSpans(rec))
	}
	if r.DowntimeSeconds != 0 {
		t.Fatalf("aborted hand-off caused downtime: %v", r.DowntimeSeconds)
	}
	if r.Migrations.Forced != 0 {
		t.Fatalf("destination revocation must not count as a service-forced migration: %+v",
			r.Migrations)
	}
	// The service holds the small market for the entire horizon.
	if r.SpotFraction() != 1 {
		t.Fatalf("spot fraction = %v", r.SpotFraction())
	}
}

// TestPlannedTargetSurvivesWhenSpikeComesLate: with the spike landing well
// after the hand-off, the migration completes and the service then runs on
// medium — which is subsequently revoked, exercising the forced path from
// the new home.
func TestPlannedTargetSurvivesWhenSpikeComesLate(t *testing.T) {
	s, rec := runAbort(t, 20*sim.Hour)
	r := s.Report()

	if r.Migrations.Planned < 1 {
		t.Fatalf("migration did not complete: %+v\n%s", r.Migrations, renderSpans(rec))
	}
	// The late spike (0.60 > 0.48 bid) then forces the fleet off medium.
	if r.Migrations.Forced != 1 {
		t.Fatalf("late spike should force exactly one migration: %+v", r.Migrations)
	}
	if r.OnDemandSeconds == 0 {
		t.Fatal("forced migration should land on on-demand")
	}
}
