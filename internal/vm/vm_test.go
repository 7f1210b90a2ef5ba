package vm

import (
	"math"
	"testing"
	"testing/quick"

	"spothost/internal/market"
)

// paperVM is the 2 GB VM the paper's micro-benchmarks use, nearly idle
// during measurement.
var paperVM = Spec{MemoryGB: 2, DirtyRateMBps: 2, DiskGB: 2, Units: 1}

// hostedVM is a busier service VM.
var hostedVM = Spec{MemoryGB: 2, DirtyRateMBps: 8, DiskGB: 4, Units: 1}

// wanLink is the link a migration between regions a and b crosses under
// any preset (they share the link table), or nil when both lie in one
// region class.
func wanLink(_ Params, a, b market.Region) *WANLink {
	if market.SameRegionClass(a, b) {
		return nil
	}
	l := Link(a, b)
	return &l
}

// liveBandwidth is the pre-copy bandwidth over link, or the intra-region
// bandwidth every preset shares when link is nil.
func liveBandwidth(_ Params, link *WANLink) float64 {
	if link == nil {
		return LiveBandwidthMBps
	}
	return link.LiveBandwidthMBps
}

func TestSpecValidate(t *testing.T) {
	if err := hostedVM.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{MemoryGB: 0, Units: 1},
		{MemoryGB: 1, DirtyRateMBps: -1, Units: 1},
		{MemoryGB: 1, DiskGB: -1, Units: 1},
		{MemoryGB: 1, Units: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestMechanismProperties(t *testing.T) {
	cases := []struct {
		m          Mechanism
		live, lazy bool
		name       string
	}{
		{CKPT, false, false, "CKPT"},
		{CKPTLazy, false, true, "CKPT LR"},
		{CKPTLive, true, false, "CKPT + Live"},
		{CKPTLazyLive, true, true, "CKPT LR + Live"},
		{Naive, false, false, "Naive"},
	}
	for _, c := range cases {
		if c.m.UsesLive() != c.live || c.m.LazyRestore() != c.lazy || c.m.String() != c.name {
			t.Errorf("%v: live=%v lazy=%v name=%q", c.m, c.m.UsesLive(), c.m.LazyRestore(), c.m.String())
		}
	}
	if len(Mechanisms()) != 4 {
		t.Fatal("Mechanisms() should list the four Fig. 7 combos")
	}
}

// TestLiveMigrationMatchesTable2 checks the calibration: a 2 GB idle-ish VM
// live-migrates intra-region in ~58 s (Table 2, "Inside US East": 58.5 s).
func TestLiveMigrationMatchesTable2(t *testing.T) {
	p := DefaultParams()
	tl := LiveMigrationTimeline(paperVM, LiveBandwidthMBps, p)
	if tl.Duration < 55 || tl.Duration > 66 {
		t.Fatalf("intra-region live migration of 2 GB = %.1f s, want ~58-62 s", tl.Duration)
	}
	if tl.Downtime > 1.5 {
		t.Fatalf("live downtime = %.2f s, want sub-second-ish", tl.Downtime)
	}
	if tl.Rounds < 2 {
		t.Fatalf("rounds = %d, expected iterative pre-copy", tl.Rounds)
	}
	// Cross-region (us-east <-> us-west): ~74 s.
	link := Link("us-east-1a", "us-west-1a")
	tl = LiveMigrationTimeline(paperVM, link.LiveBandwidthMBps, p)
	if tl.Duration < 70 || tl.Duration > 85 {
		t.Fatalf("east-west live migration = %.1f s, want ~74-80 s", tl.Duration)
	}
	// us-west <-> eu-west is the slow pair: ~140 s.
	link = Link("us-west-1a", "eu-west-1a")
	tl = LiveMigrationTimeline(paperVM, link.LiveBandwidthMBps, p)
	if tl.Duration < 135 || tl.Duration > 170 {
		t.Fatalf("west-eu live migration = %.1f s, want ~140-165 s", tl.Duration)
	}
}

// TestCheckpointMatchesTable2 checks 28 s/GB checkpoint write calibration.
func TestCheckpointMatchesTable2(t *testing.T) {
	p := DefaultParams()
	perGB := p.FullCheckpointTime(Spec{MemoryGB: 1, Units: 1})
	if perGB < 27 || perGB > 29 {
		t.Fatalf("checkpoint = %.1f s/GB, want ~28", perGB)
	}
	// Eager restore of 2 GB runs at disk-file-copy speed: "less than 120s
	// inside a region" (see the RestoreReadMBps doc comment).
	if got := p.FullRestoreTime(paperVM); got < 100 || got > 125 {
		t.Fatalf("eager restore of 2 GB = %.1f s, want ~120 s", got)
	}
}

func TestLiveMigrationNonConvergent(t *testing.T) {
	p := DefaultParams()
	hot := Spec{MemoryGB: 2, DirtyRateMBps: 100, Units: 1} // dirties faster than bw
	tl := LiveMigrationTimeline(hot, LiveBandwidthMBps, p)
	if tl.Downtime < 30 {
		t.Fatalf("non-convergent migration should have large downtime, got %.1f", tl.Downtime)
	}
}

func TestLiveMigrationZeroBandwidth(t *testing.T) {
	p := DefaultParams()
	tl := LiveMigrationTimeline(paperVM, 0, p)
	if tl.Downtime != tl.Duration || tl.Downtime <= 0 {
		t.Fatalf("degenerate zero-bw timeline: %+v", tl)
	}
}

func TestLiveMigrationMonotoneInMemory(t *testing.T) {
	p := DefaultParams()
	f := func(g uint8) bool {
		small := Spec{MemoryGB: 1 + float64(g%16), DirtyRateMBps: 5, Units: 1}
		big := Spec{MemoryGB: small.MemoryGB + 1, DirtyRateMBps: 5, Units: 1}
		a := LiveMigrationTimeline(small, LiveBandwidthMBps, p)
		b := LiveMigrationTimeline(big, LiveBandwidthMBps, p)
		return b.Duration >= a.Duration
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlannedTimelineOrdering(t *testing.T) {
	p := DefaultParams()
	ck := PlannedTimeline(hostedVM, CKPT, p, nil)
	lr := PlannedTimeline(hostedVM, CKPTLazy, p, nil)
	lv := PlannedTimeline(hostedVM, CKPTLive, p, nil)
	lvlr := PlannedTimeline(hostedVM, CKPTLazyLive, p, nil)

	// Live hand-off beats any suspend/resume; lazy restore beats eager.
	if !(lv.Downtime < lr.Downtime && lr.Downtime < ck.Downtime) {
		t.Fatalf("downtime ordering violated: live=%.1f lazy=%.1f eager=%.1f",
			lv.Downtime, lr.Downtime, ck.Downtime)
	}
	if lvlr.Downtime != lv.Downtime {
		t.Fatalf("restore kind should not affect voluntary live migrations: %v vs %v",
			lvlr.Downtime, lv.Downtime)
	}
	// Lazy restore trades downtime for degraded time.
	if lr.Degraded <= 0 || ck.Degraded != 0 {
		t.Fatalf("degraded accounting: lazy=%v eager=%v", lr.Degraded, ck.Degraded)
	}
	// Checkpoint-based planned migration downtime = bound + restore.
	wantCK := float64(p.CheckpointBound) + p.FullRestoreTime(hostedVM)
	if math.Abs(ck.Downtime-wantCK) > 1e-9 {
		t.Fatalf("CKPT planned downtime = %v, want %v", ck.Downtime, wantCK)
	}
	// Voluntary lazy restores are pre-staged: only the bound plus a small
	// increment-resume remain in the downtime.
	wantLR := float64(p.CheckpointBound) + float64(p.PreStagedLazyResume)
	if math.Abs(lr.Downtime-wantLR) > 1e-9 {
		t.Fatalf("CKPT LR planned downtime = %v, want %v", lr.Downtime, wantLR)
	}
}

func TestPlannedTimelineNaive(t *testing.T) {
	p := DefaultParams()
	tl := PlannedTimeline(hostedVM, Naive, p, nil)
	if !tl.MemoryLost || tl.Downtime != float64(BootTime) {
		t.Fatalf("naive planned: %+v", tl)
	}
}

func TestPlannedCrossRegionAddsDiskCopy(t *testing.T) {
	p := DefaultParams()
	link := Link("us-east-1a", "eu-west-1a")
	lan := PlannedTimeline(hostedVM, CKPTLazyLive, p, nil)
	wan := PlannedTimeline(hostedVM, CKPTLazyLive, p, &link)
	if wan.Duration <= lan.Duration {
		t.Fatal("cross-region migration should take longer overall")
	}
	// Disk copy overlaps execution: live hand-off downtime is unchanged.
	if wan.Downtime < lan.Downtime {
		t.Fatalf("WAN downtime %v < LAN downtime %v", wan.Downtime, lan.Downtime)
	}
	// The added duration covers at least the disk copy.
	minAdd := hostedVM.DiskGB * 1024 / link.DiskCopyMBps
	if wan.Duration-lan.Duration < minAdd*0.5 {
		t.Fatalf("WAN duration increase %.1f too small for a %.1f s disk copy",
			wan.Duration-lan.Duration, minAdd)
	}
}

func TestPlannedCrossRegionCheckpointShipsImage(t *testing.T) {
	p := DefaultParams()
	link := Link("us-east-1a", "us-west-1a")
	lan := PlannedTimeline(hostedVM, CKPTLazy, p, nil)
	wan := PlannedTimeline(hostedVM, CKPTLazy, p, &link)
	if wan.Downtime <= lan.Downtime {
		t.Fatal("cross-region checkpoint migration should add increment-transfer downtime")
	}
}

func TestCheckpointInterval(t *testing.T) {
	p := DefaultParams()
	iv := p.CheckpointInterval(hostedVM)
	// interval = bound x writeRate / dirtyRate: dirty accumulated over one
	// interval must write out within the bound.
	dirtyMB := hostedVM.DirtyRateMBps * iv
	writeTime := dirtyMB / p.CheckpointWriteMBps
	if writeTime > float64(p.CheckpointBound)+1e-9 {
		t.Fatalf("Yank bound violated: %v > %v", writeTime, p.CheckpointBound)
	}
	if got := p.CheckpointInterval(Spec{MemoryGB: 1, Units: 1}); got != 0 {
		t.Fatalf("idle VM interval = %v, want 0", got)
	}
}

func TestWANKeySymmetric(t *testing.T) {
	if WANKey("us-east-1a", "us-west-1a") != WANKey("us-west-1b", "us-east-1b") {
		t.Fatal("WANKey should be order- and zone-insensitive")
	}
	if Link("made-up-1a", "other-2b") != defaultWAN {
		t.Fatal("unknown pair should fall back to the default link")
	}
}

func TestOverheadFactors(t *testing.T) {
	o := DefaultOverhead()
	// Table 4: nested I/O within ~2% of native.
	for _, f := range []float64{o.NetworkTxFactor, o.NetworkRxFactor, o.DiskReadFactor, o.DiskWriteFactor} {
		if f < 0.97 || f > 1.0 {
			t.Fatalf("I/O factor %v outside Table 4 band", f)
		}
	}
	// Pure-I/O workloads keep near-native capacity; pure-CPU lose up to a
	// third (1/1.5).
	if got := o.EffectiveCapacityFactor(0); got < 0.97 {
		t.Fatalf("I/O capacity factor = %v", got)
	}
	if got := o.EffectiveCapacityFactor(1); math.Abs(got-1/1.5) > 1e-9 {
		t.Fatalf("CPU capacity factor = %v", got)
	}
	// Clamping.
	if o.EffectiveCapacityFactor(-1) != o.EffectiveCapacityFactor(0) {
		t.Fatal("cpuShare not clamped low")
	}
	if o.EffectiveCapacityFactor(2) != o.EffectiveCapacityFactor(1) {
		t.Fatal("cpuShare not clamped high")
	}
	n := NativeOverhead()
	if n.EffectiveCapacityFactor(0.5) != 1 {
		t.Fatal("native overhead should be identity")
	}
}

// TestTimelineInvariants property-checks every mechanism/parameter
// combination: downtime never exceeds duration... (duration counts from
// migration start, downtime is a sub-interval) and both are non-negative.
func TestTimelineInvariants(t *testing.T) {
	params := []Params{DefaultParams(), PessimisticParams()}
	f := func(memQ, dirtyQ uint8) bool {
		s := Spec{
			MemoryGB:      0.5 + float64(memQ%32),
			DirtyRateMBps: float64(dirtyQ % 64),
			DiskGB:        2,
			Units:         1,
		}
		for _, p := range params {
			for _, m := range []Mechanism{CKPT, CKPTLazy, CKPTLive, CKPTLazyLive, Naive} {
				link := Link("us-east-1a", "eu-west-1a")
				for _, tl := range []Timeline{
					PlannedTimeline(s, m, p, nil),
					PlannedTimeline(s, m, p, &link),
				} {
					if tl.Downtime < 0 || tl.Duration < 0 || tl.Degraded < 0 {
						return false
					}
					if tl.Downtime > tl.Duration+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
