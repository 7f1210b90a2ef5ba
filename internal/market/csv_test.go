package market

import (
	"bytes"
	"strings"
	"testing"

	"spothost/internal/sim"
)

const csvHeader = "seconds,region,instance_type,price"

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.Horizon = 2 * sim.Day
	// Shrink the universe to keep the file small.
	cfg.Regions = cfg.Regions[:2]
	cfg.Types = cfg.Types[:2]
	orig, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.IDs()) != len(orig.IDs()) {
		t.Fatalf("market count: %d vs %d", len(got.IDs()), len(orig.IDs()))
	}
	if got.Horizon() != orig.Horizon() {
		t.Fatalf("horizon: %v vs %v", got.Horizon(), orig.Horizon())
	}
	for _, id := range orig.IDs() {
		a, b := orig.Trace(id), got.Trace(id)
		if b == nil {
			t.Fatalf("%s missing after round trip", id)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s: point count %d vs %d", id, a.Len(), b.Len())
		}
		pa, pb := a.Points(), b.Points()
		for i := range pa {
			if pa[i].T != pb[i].T || pa[i].Price != pb[i].Price {
				t.Fatalf("%s: point %d: %v vs %v", id, i, pa[i], pb[i])
			}
		}
		if got.OnDemand(id) != orig.OnDemand(id) {
			t.Fatalf("%s: on-demand %v vs %v", id, got.OnDemand(id), orig.OnDemand(id))
		}
	}
}

func TestReadCSVHandwritten(t *testing.T) {
	in := strings.Join([]string{
		csvHeader,
		"0,us-east-1a,small,0.02",
		"100,us-east-1a,small,0.05",
		"0,us-east-1a,large,0.08",
		"#ondemand,us-east-1a,small,0.06",
		"#ondemand,us-east-1a,large,0.24",
		"#end,,,200",
	}, "\n") + "\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Trace(ID{Region: "us-east-1a", Type: "small"})
	if tr == nil || tr.Len() != 2 || tr.PriceAt(150) != 0.05 {
		t.Fatalf("bad parse: %+v", tr)
	}
	if s.Horizon() != 200 {
		t.Fatalf("horizon = %v", s.Horizon())
	}
}

func TestReadCSVMissingCatalogFallsBack(t *testing.T) {
	in := strings.Join([]string{
		csvHeader,
		"0,us-east-1a,small,0.02",
		"0,us-east-1a,exotic,0.50",
	}, "\n") + "\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Known type: default catalog price.
	if got := s.OnDemand(ID{Region: "us-east-1a", Type: "small"}); got != 0.06 {
		t.Fatalf("small fallback = %v", got)
	}
	// Unknown type: trace max heuristic.
	if got := s.OnDemand(ID{Region: "us-east-1a", Type: "exotic"}); got != 0.50 {
		t.Fatalf("exotic fallback = %v", got)
	}
	// No #end row: horizon extends one hour past the last point.
	if s.Horizon() != sim.Hour {
		t.Fatalf("horizon = %v", s.Horizon())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		csvHeader + "\n",
		csvHeader + "\nnotanumber,us-east-1a,small,0.02\n",
		csvHeader + "\n0,us-east-1a,small,bad\n",
		csvHeader + "\n0,us-east-1a,small,0.02\n#ondemand,us-east-1a,small,bad\n",
		csvHeader + "\n0,us-east-1a,small,0.02\n#end,,,bad\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad csv accepted", i)
		}
	}
}
