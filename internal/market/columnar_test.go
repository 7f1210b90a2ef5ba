package market

import (
	"reflect"
	"testing"
	"unsafe"

	"spothost/internal/sim"
)

// TestColumnarViewConsistency checks the times and prices columns of a
// trace agree in length and that the step times strictly increase.
func TestColumnarViewConsistency(t *testing.T) {
	set, err := Generate(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range set.IDs() {
		tr := set.Trace(id)
		ts, ps := tr.Times(), tr.Prices()
		if len(ts) != len(ps) || len(ts) != tr.Len() {
			t.Fatalf("%s: column lengths disagree: times=%d prices=%d len=%d",
				id, len(ts), len(ps), tr.Len())
		}
		for i := range ts {
			if i > 0 && ts[i] <= ts[i-1] {
				t.Fatalf("%s: times not strictly increasing at %d", id, i)
			}
		}
	}
}

// TestSetArenaSharing checks that NewSet repacks every trace of a universe
// into one contiguous arena: consecutive traces (in sorted-ID order) must
// be adjacent slices of the same backing slab.
func TestSetArenaSharing(t *testing.T) {
	set, err := Generate(DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	ids := set.IDs()
	if len(ids) < 2 {
		t.Skip("need at least two markets")
	}
	for i := 1; i < len(ids); i++ {
		prev, cur := set.Trace(ids[i-1]), set.Trace(ids[i])
		pt, ct := prev.Times(), cur.Times()
		// Adjacent in one slab: cur's first element sits right after prev's
		// last element in memory.
		endOfPrev := uintptr(unsafe.Pointer(&pt[0])) + uintptr(len(pt))*unsafe.Sizeof(pt[0])
		startOfCur := uintptr(unsafe.Pointer(&ct[0]))
		if endOfPrev != startOfCur {
			t.Fatalf("traces %s and %s are not adjacent in the arena (end %#x vs start %#x)",
				ids[i-1], ids[i], endOfPrev, startOfCur)
		}
	}
}

// TestNewSetDoesNotMutateInputs checks that the arena repack copies: the
// traces passed to NewSet keep their own storage and values.
func TestNewSetDoesNotMutateInputs(t *testing.T) {
	id := ID{Region: "r", Type: "t"}
	pts := []Point{{T: 0, Price: 1}, {T: 10, Price: 2}, {T: 20, Price: 1.5}}
	tr, err := NewTrace(id, pts, 30)
	if err != nil {
		t.Fatal(err)
	}
	wantT := append([]sim.Time(nil), tr.Times()...)
	wantP := append([]float64(nil), tr.Prices()...)

	set, err := NewSet([]*Trace{tr}, map[ID]float64{id: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Times(), wantT) || !reflect.DeepEqual(tr.Prices(), wantP) {
		t.Fatalf("NewSet mutated its input trace")
	}
	// The set's copy carries the same values.
	got := set.Trace(id)
	if !reflect.DeepEqual(got.Times(), wantT) || !reflect.DeepEqual(got.Prices(), wantP) {
		t.Fatalf("set trace differs from input: times %v vs %v, prices %v vs %v",
			got.Times(), wantT, got.Prices(), wantP)
	}
	if got.End() != tr.End() || got.id != id {
		t.Fatalf("set trace metadata differs")
	}
}

// TestPriceAtMatchesScan spot-checks that PriceAt's binary search agrees
// with a linear scan of the columns.
func TestPriceAtMatchesScan(t *testing.T) {
	set, err := Generate(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	id := set.IDs()[0]
	tr := set.Trace(id)
	for _, q := range []sim.Time{-5, 0, 1, 3600, 86400, tr.End() - 1, tr.End() + 10} {
		want := tr.Prices()[0]
		for i, at := range tr.Times() {
			if at <= q {
				want = tr.Prices()[i]
			}
		}
		if got := tr.PriceAt(q); got != want {
			t.Fatalf("PriceAt(%v) = %v, scan says %v", q, got, want)
		}
	}
}
