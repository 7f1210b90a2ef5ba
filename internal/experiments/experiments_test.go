package experiments

import (
	"strings"
	"testing"

	"spothost/internal/vm"
)

// quick returns minimal options so the whole suite stays fast.
func quick() Options {
	o := Quick()
	o.Seeds = []int64{7}
	return o
}

func TestFigure1(t *testing.T) {
	r, err := Figure1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Summaries) != 2 {
		t.Fatalf("summaries = %d, want small+large", len(r.Summaries))
	}
	for _, s := range r.Summaries {
		if s.Mean <= 0 || s.Mean >= s.OnDemand {
			t.Fatalf("%s: mean %v vs od %v — spot regime broken", s.Market, s.Mean, s.OnDemand)
		}
		if s.Max <= s.Mean {
			t.Fatalf("%s: no spikes (max %v, mean %v)", s.Market, s.Max, s.Mean)
		}
	}
	for id, days := range r.Series {
		if len(days) < 9 {
			t.Fatalf("%s: only %d daily points", id, len(days))
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestTable1StartupShape(t *testing.T) {
	r, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Regions) != 3 {
		t.Fatalf("regions = %v", r.Regions)
	}
	for _, reg := range r.Regions {
		od, sp := r.OnDemand[reg], r.Spot[reg]
		// Table 1 shape: on-demand ~1.5 min, spot 3.5-5 min, spot slower.
		if od < 60 || od > 140 {
			t.Errorf("%s: on-demand startup %v outside ~95 s band", reg, od)
		}
		if sp < 150 || sp > 400 {
			t.Errorf("%s: spot startup %v outside ~220-280 s band", reg, sp)
		}
		if sp <= od {
			t.Errorf("%s: spot (%v) should be slower than on-demand (%v)", reg, sp, od)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestTable2Calibration(t *testing.T) {
	r, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range r.IntraRegions {
		if d := r.LiveIntra[reg]; d < 55 || d > 70 {
			t.Errorf("intra live %s = %.1f, want ~58-62", reg, d)
		}
	}
	if r.CkptPerGB < 27 || r.CkptPerGB > 29 {
		t.Errorf("checkpoint %.1f s/GB, want ~28", r.CkptPerGB)
	}
	// Cross-region live slower than intra; disk copy 2-3 min/GB.
	for key, d := range r.LiveCross {
		if d < 70 || d > 170 {
			t.Errorf("cross live %s = %.1f outside Table 2 band", key, d)
		}
	}
	for key, d := range r.DiskPerGB {
		if d < 100 || d > 200 {
			t.Errorf("disk copy %s = %.1f s/GB outside 2-3 min band", key, d)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestFigure6Claims(t *testing.T) {
	r, err := Figure6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Claim (a): both policies land far below the on-demand baseline.
		for _, rep := range []struct {
			name string
			nc   float64
		}{{"reactive", row.Reactive.NormalizedCost()}, {"proactive", row.Proact.NormalizedCost()}} {
			if rep.nc < 0.05 || rep.nc > 0.55 {
				t.Errorf("%s/%s: normalized cost %.3f outside the savings band",
					row.Type, rep.name, rep.nc)
			}
		}
		// Claim (b): proactive unavailability below reactive.
		if row.Proact.Unavailability() >= row.Reactive.Unavailability() {
			t.Errorf("%s: proactive unavail %.5f not below reactive %.5f",
				row.Type, row.Proact.Unavailability(), row.Reactive.Unavailability())
		}
		// Claim (c): proactive suffers fewer forced migrations.
		if row.Proact.ForcedPerHour() >= row.Reactive.ForcedPerHour() {
			t.Errorf("%s: proactive forced rate %.4f not below reactive %.4f",
				row.Type, row.Proact.ForcedPerHour(), row.Reactive.ForcedPerHour())
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 6") {
		t.Fatal("render missing title")
	}
}

func TestFigure7Claims(t *testing.T) {
	r, err := Figure7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	get := func(m vm.Mechanism) Figure7Cell {
		for _, c := range r.Cells {
			if c.Mechanism == m {
				return c
			}
		}
		t.Fatalf("mechanism %v missing", m)
		return Figure7Cell{}
	}
	ck := get(vm.CKPT)
	lr := get(vm.CKPTLazy)
	best := get(vm.CKPTLazyLive)
	// Headline claims: CKPT is the worst; lazy restore improves it; the
	// live+lazy combination is the best.
	if !(ck.Typical.Unavailability() > lr.Typical.Unavailability()) {
		t.Errorf("CKPT %.5f should exceed CKPT LR %.5f",
			ck.Typical.Unavailability(), lr.Typical.Unavailability())
	}
	if !(lr.Typical.Unavailability() >= best.Typical.Unavailability()) {
		t.Errorf("CKPT LR %.5f should not beat CKPT LR+Live %.5f",
			lr.Typical.Unavailability(), best.Typical.Unavailability())
	}
	// Pessimistic bars are uniformly worse than typical.
	for _, c := range r.Cells {
		if c.Pessim.Unavailability() < c.Typical.Unavailability() {
			t.Errorf("%v: pessimistic %.5f below typical %.5f",
				c.Mechanism, c.Pessim.Unavailability(), c.Typical.Unavailability())
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 7") {
		t.Fatal("render missing title")
	}
}

func TestFigure8Claims(t *testing.T) {
	r, err := Figure8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	cheaper := 0
	for _, row := range r.Rows {
		if row.Multi.NormalizedCost() < row.AvgSingle.NormalizedCost() {
			cheaper++
		}
		if row.Correlation > 0.7 {
			t.Errorf("%s: intra-region correlation %.2f not low", row.Region, row.Correlation)
		}
	}
	// Multi-market should win in (at least) most regions.
	if cheaper < 3 {
		t.Errorf("multi-market cheaper in only %d/4 regions", cheaper)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 8") {
		t.Fatal("render missing title")
	}
}

func TestFigure9Claims(t *testing.T) {
	r, err := Figure9(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 pairs", len(r.Rows))
	}
	cheaper := 0
	for _, row := range r.Rows {
		if row.Multi.NormalizedCost() <= row.AvgSingle.NormalizedCost() {
			cheaper++
		}
		if row.Correlation > 0.6 {
			t.Errorf("%s+%s: cross-region correlation %.2f not low", row.A, row.B, row.Correlation)
		}
		if row.Multi.NormalizedCost() <= 0 {
			t.Errorf("%s+%s: degenerate cost", row.A, row.B)
		}
	}
	if cheaper < 4 {
		t.Errorf("multi-region cheaper in only %d/6 pairs", cheaper)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 9") {
		t.Fatal("render missing title")
	}
}

func TestFigure10Claims(t *testing.T) {
	r, err := Figure10(quick())
	if err != nil {
		t.Fatal(err)
	}
	// us-east markets are more variable than eu-west for every size
	// (relative to price scale, checked on the small market).
	east := r.StdDev["us-east-1a"]["small"] + r.StdDev["us-east-1b"]["small"]
	eu := 2 * r.StdDev["eu-west-1a"]["small"]
	if east <= eu {
		t.Errorf("us-east stddev (%.4f) should exceed eu-west (%.4f)", east, eu)
	}
	// Larger sizes have larger absolute deviations (price scale).
	for _, reg := range r.Regions {
		if r.StdDev[reg]["xlarge"] <= r.StdDev[reg]["small"] {
			t.Errorf("%s: xlarge stddev %.4f not above small %.4f",
				reg, r.StdDev[reg]["xlarge"], r.StdDev[reg]["small"])
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 10") {
		t.Fatal("render missing title")
	}
}

func TestFigure11Claims(t *testing.T) {
	r, err := Figure11(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Pure spot is (a bit) cheaper but (b) vastly less available.
		if row.PureSpot.NormalizedCost() > row.Proact.NormalizedCost()*1.15 {
			t.Errorf("%s: pure spot cost %.3f above proactive %.3f",
				row.Type, row.PureSpot.NormalizedCost(), row.Proact.NormalizedCost())
		}
		if row.PureSpot.Unavailability() < 0.004 {
			t.Errorf("%s: pure spot unavailability %.4f suspiciously low",
				row.Type, row.PureSpot.Unavailability())
		}
		if row.PureSpot.Unavailability() < 10*row.Proact.Unavailability() {
			t.Errorf("%s: pure spot %.5f should dwarf proactive %.5f",
				row.Type, row.PureSpot.Unavailability(), row.Proact.Unavailability())
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 11") {
		t.Fatal("render missing title")
	}
}

func TestTable3Matrix(t *testing.T) {
	r, err := Table3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.MigrationIsBest {
		t.Errorf("migration strategy should be low-cost AND high-availability: %+v", r)
	}
	if r.OnDemandAvail < 0.9999 {
		t.Errorf("on-demand availability %.5f", r.OnDemandAvail)
	}
	if r.SpotAvail > 0.999 {
		t.Errorf("pure spot availability %.5f should be below four nines", r.SpotAvail)
	}
	out := r.Render()
	if !strings.Contains(out, "Low") || !strings.Contains(out, "High") {
		t.Fatalf("matrix labels missing: %s", out)
	}
}

func TestTable4AndFigure12(t *testing.T) {
	t4, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range t4.DegradationPct {
		if d < -5 || d > 8 {
			t.Errorf("degradation[%d] = %.1f%% outside plausible band", i, d)
		}
	}
	if !strings.Contains(t4.Render(), "Table 4") {
		t.Fatal("render missing title")
	}

	f12, err := Figure12(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.WithImages) != 7 || len(f12.NoImages) != 7 {
		t.Fatalf("point counts: %d/%d", len(f12.WithImages), len(f12.NoImages))
	}
	// (a) parity under I/O-bound load at the high end.
	last := f12.WithImages[len(f12.WithImages)-1]
	if ratio := last.NestedMs / last.NativeMs; ratio > 1.25 {
		t.Errorf("fig12a high-load ratio %.2f, want parity", ratio)
	}
	// (b) clear overhead under CPU-bound load at the high end.
	last = f12.NoImages[len(f12.NoImages)-1]
	if ratio := last.NestedMs / last.NativeMs; ratio < 1.3 {
		t.Errorf("fig12b high-load ratio %.2f, want >= 1.3", ratio)
	}
	if !strings.Contains(f12.Render(), "Figure 12(b)") {
		t.Fatal("render missing panel title")
	}
}

func TestSection6(t *testing.T) {
	r, err := Section6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstCaseCost <= r.NormalizedCost {
		t.Errorf("worst case %.3f should exceed nominal %.3f", r.WorstCaseCost, r.NormalizedCost)
	}
	if r.CapacityFactor < 0.6 || r.CapacityFactor > 0.7 {
		t.Errorf("capacity factor %.3f, want ~1/1.5", r.CapacityFactor)
	}
	if !strings.Contains(r.Render(), "Section 6") {
		t.Fatal("render missing title")
	}
}

func TestAllRegistryComplete(t *testing.T) {
	want := []string{"figure1", "table1", "table2", "figure6", "figure7", "figure8",
		"figure9", "figure10", "figure11", "table3", "table4", "figure12", "section6",
		"ablations", "robustness", "fleet", "heterogeneity"}
	entries := All()
	if len(entries) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(entries), len(want))
	}
	for i, w := range want {
		if entries[i].Name != w {
			t.Fatalf("entry %d = %s, want %s", i, entries[i].Name, w)
		}
	}
	if _, ok := Find("figure6"); !ok {
		t.Fatal("Find failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	n := o.normalize()
	if len(n.Seeds) == 0 || n.Horizon <= 0 {
		t.Fatalf("normalize left zeros: %+v", n)
	}
}
