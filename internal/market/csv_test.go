package market

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"spothost/internal/sim"
)

const csvHeader = "seconds,region,instance_type,price"

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.Horizon = 2 * sim.Day
	// Shrink the universe to keep the file small.
	cfg.Types = cfg.Types[:1]
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
		for i, at := range a.Times() {
			if bt := b.Times()[i]; at != bt || a.Prices()[i] != b.Prices()[i] {
				t.Fatalf("%s: step %d: (%v, %v) vs (%v, %v)", id, i, at, a.Prices()[i], bt, b.Prices()[i])
			}
		}
		if got.OnDemand(id) != orig.OnDemand(id) {
			t.Fatalf("%s: on-demand %v vs %v", id, got.OnDemand(id), orig.OnDemand(id))
		}
	}
}

var handwrittenCSV = strings.Join([]string{
	csvHeader,
	"0,us-east-1a,small,0.02",
	"100,us-east-1a,small,0.05",
	"0,us-east-1a,large,0.08",
	"#ondemand,us-east-1a,small,0.06",
	"#ondemand,us-east-1a,large,0.24",
	"#end,,,200",
}, "\n") + "\n"

func TestReadCSVHandwritten(t *testing.T) {
	s, err := ReadCSV(strings.NewReader(handwrittenCSV))
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

var noCatalogCSV = strings.Join([]string{
	csvHeader,
	"0,us-east-1a,small,0.02",
	"0,us-east-1a,exotic,0.50",
}, "\n") + "\n"

func TestReadCSVMissingCatalogFallsBack(t *testing.T) {
	s, err := ReadCSV(strings.NewReader(noCatalogCSV))
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

// badCSVs are inputs ReadCSV must reject.
var badCSVs = []string{
	"",
	csvHeader + "\n",
	csvHeader + "\nnotanumber,us-east-1a,small,0.02\n",
	csvHeader + "\n0,us-east-1a,small,bad\n",
	csvHeader + "\n0,us-east-1a,small,0.02\n#ondemand,us-east-1a,small,bad\n",
	csvHeader + "\n0,us-east-1a,small,0.02\n#end,,,bad\n",
	csvHeader + "\n0,us-east-1a,small,0.02\n100,us-east-1a,small,NaN\n",
	csvHeader + "\n0,us-east-1a,small,0.02\n100,us-east-1a,small,+Inf\n",
	csvHeader + "\n0,us-east-1a,small,0.02\nNaN,us-east-1a,small,0.05\n",
	csvHeader + "\n0,us-east-1a,small,0.02\n#end,,,NaN\n",
	csvHeader + "\n0,us-east-1a,small,0.02\n#ondemand,us-east-1a,small,NaN\n",
}

func TestReadCSVErrors(t *testing.T) {
	for i, in := range badCSVs {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad csv accepted", i)
		}
	}
}

// FuzzReadCSV feeds arbitrary text to ReadCSV. It must never panic, and
// any set it accepts must survive WriteCSV and a second ReadCSV unchanged:
// the same markets, steps, ends, on-demand prices and horizon.
func FuzzReadCSV(f *testing.F) {
	for _, in := range append([]string{
		handwrittenCSV,
		noCatalogCSV,
		// No #end row, markets ending at different times.
		csvHeader + "\n0,us-east-1a,small,0.02\n7200,us-east-1a,small,0.03\n0,us-west-1a,small,0.04\n",
	}, badCSVs...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, a); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		written := buf.String()
		b, err := ReadCSV(strings.NewReader(written))
		if err != nil {
			t.Fatalf("re-reading %q: %v", written, err)
		}
		if !slices.Equal(a.IDs(), b.IDs()) || a.Horizon() != b.Horizon() {
			t.Fatalf("markets or horizon changed: %v %v -> %v %v", a.IDs(), a.Horizon(), b.IDs(), b.Horizon())
		}
		for _, id := range a.IDs() {
			ta, tb := a.Trace(id), b.Trace(id)
			if !slices.Equal(ta.Times(), tb.Times()) || !slices.Equal(ta.Prices(), tb.Prices()) ||
				ta.End() != tb.End() || a.OnDemand(id) != b.OnDemand(id) {
				t.Fatalf("%s changed in the round trip", id)
			}
		}
	})
}
