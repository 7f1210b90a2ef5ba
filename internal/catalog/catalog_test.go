package catalog

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

func TestLegacyMatchesDefaultTypes(t *testing.T) {
	if got, want := Legacy().TypeSpecs(), market.DefaultTypes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Legacy().TypeSpecs() = %+v, want market.DefaultTypes() %+v", got, want)
	}
}

func TestDefaultIncludesLegacyUnchanged(t *testing.T) {
	def := Default()
	for _, ts := range market.DefaultTypes() {
		e, ok := def.Lookup(ts.Name)
		if !ok {
			t.Fatalf("default catalog missing legacy type %q", ts.Name)
		}
		if e.Units != ts.Units || e.MemoryGB != ts.MemoryGB || e.OnDemand != ts.OnDemand {
			t.Fatalf("legacy type %q drifted: %+v vs %+v", ts.Name, e, ts)
		}
	}
	if n := len(def.TypeSpecs()); n < 10 {
		t.Fatalf("default catalog has %d types, want >= 10", n)
	}
}

func TestNewValidation(t *testing.T) {
	base := Entry{Name: "a", VCPU: 1, MemoryGB: 1, Units: 1, OnDemand: 0.1}
	cases := []struct {
		name string
		mut  func(*Entry)
	}{
		{"empty name", func(e *Entry) { e.Name = "" }},
		{"zero vcpu", func(e *Entry) { e.VCPU = 0 }},
		{"negative memory", func(e *Entry) { e.MemoryGB = -1 }},
		{"zero units", func(e *Entry) { e.Units = 0 }},
		{"non power-of-two units", func(e *Entry) { e.Units = 3 }},
		{"zero price", func(e *Entry) { e.OnDemand = 0 }},
		{"NaN memory", func(e *Entry) { e.MemoryGB = math.NaN() }},
		{"NaN price", func(e *Entry) { e.OnDemand = math.NaN() }},
	}
	for _, tc := range cases {
		e := base
		tc.mut(&e)
		if _, err := New([]Entry{e}); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, e)
		}
	}
	if _, err := New(nil); err == nil {
		t.Error("New accepted an empty catalog")
	}
	if _, err := New([]Entry{base, base}); err == nil {
		t.Error("New accepted a duplicate name")
	}
	if _, err := New([]Entry{base}); err != nil {
		t.Errorf("New rejected a valid entry: %v", err)
	}
}

func TestInvUnitsExact(t *testing.T) {
	def := Default()
	for _, ts := range def.TypeSpecs() {
		e, _ := def.Lookup(ts.Name)
		for _, p := range []float64{0.0123, 0.06, 1.7320508, 15} {
			if p*e.InvUnits() != p/float64(e.Units) {
				t.Fatalf("%s: p*InvUnits != p/Units for p=%v", e.Name, p)
			}
		}
	}
}

func TestCompatibleTypes(t *testing.T) {
	def := Default()
	small, _ := def.Lookup("small")
	compatible := 0
	for _, ts := range def.TypeSpecs() {
		if e, _ := def.Lookup(ts.Name); Compatible(small, e) {
			compatible++
		}
	}
	// t-small has less memory than small: cheapest per unit, but not a
	// legal replacement.
	if ts, _ := def.Lookup("t-small"); Compatible(small, ts) {
		t.Error("t-small reported compatible with small despite smaller memory")
	}
	if n := len(def.TypeSpecs()); compatible != n-1 {
		t.Errorf("small should be replaceable by every type but t-small, got %d of %d", compatible, n)
	}
	// m-large (4 vCPU) cannot replace c-large (8 vCPU) despite more memory.
	cl, _ := def.Lookup("c-large")
	ml, _ := def.Lookup("m-large")
	if Compatible(cl, ml) {
		t.Error("m-large reported compatible with c-large despite fewer vCPUs")
	}
}

// catalogSet generates a universe over the full default catalog.
func catalogSet(t testing.TB, seed int64) *market.Set {
	t.Helper()
	cfg := market.DefaultConfig(seed)
	cfg.Types = Default().TypeSpecs()
	cfg.Horizon = 2 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestCompatibleMarketsSorted(t *testing.T) {
	def := Default()
	set := catalogSet(t, 7)
	ids, err := def.CompatibleMarkets(set, "xlarge")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		e, _ := def.Lookup(id.Type)
		if e.VCPU < 8 || e.MemoryGB < 15 {
			t.Fatalf("market %s weaker than xlarge anchor", id)
		}
		if i > 0 && ids[i-1].String() >= id.String() {
			t.Fatalf("markets not sorted at %d", i)
		}
	}
	// xlarge is replaceable by xlarge, m-xlarge, xxlarge in 4 regions.
	if want := 3 * 4; len(ids) != want {
		t.Fatalf("xlarge anchor: %d compatible markets, want %d", len(ids), want)
	}
	if _, err := def.CompatibleMarkets(set, "nope"); err == nil {
		t.Error("unknown anchor accepted")
	}
}

// fuzzNames are the entry names a fuzz record can pick; "" is invalid and
// the short list makes duplicates likely.
var fuzzNames = []market.InstanceType{"", "a", "b", "small", "medium", "xlarge"}

// fuzzRecord is the size of one encoded entry: name index, vCPU (int8),
// units (int16), memory and on-demand price (float64 bits), little-endian.
const fuzzRecord = 20

// encodeEntries is the inverse of the decoder in FuzzCatalogNew for
// entries whose name is in fuzzNames.
func encodeEntries(entries []Entry) []byte {
	var out []byte
	for _, e := range entries {
		rec := make([]byte, fuzzRecord)
		for i, n := range fuzzNames {
			if n == e.Name {
				rec[0] = byte(i)
			}
		}
		rec[1] = byte(int8(e.VCPU))
		binary.LittleEndian.PutUint16(rec[2:], uint16(int16(e.Units)))
		binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(e.MemoryGB))
		binary.LittleEndian.PutUint64(rec[12:], math.Float64bits(e.OnDemand))
		out = append(out, rec...)
	}
	return out
}

// FuzzCatalogNew: a custom catalog comes from a stranger's fleet
// definition. New must never panic, and every entry of a catalog it
// accepts must have power-of-two units (so per-unit prices are exact),
// positive memory and price, and be found by Lookup.
func FuzzCatalogNew(f *testing.F) {
	legacy := legacyEntries()
	f.Add(encodeEntries(legacy[:2])) // small and medium
	f.Add(encodeEntries([]Entry{{Name: "a", VCPU: 1, MemoryGB: 1, Units: 1024, OnDemand: 0.1}}))
	f.Add(encodeEntries([]Entry{{Name: "a", VCPU: 1, MemoryGB: 1, Units: 3, OnDemand: 0.1}}))
	f.Add(encodeEntries([]Entry{{Name: "b", VCPU: 2, MemoryGB: math.NaN(), Units: 2, OnDemand: 0.1}}))
	f.Add(encodeEntries([]Entry{{Name: "a", VCPU: 1, MemoryGB: 1, Units: 1, OnDemand: 0.1}, {Name: "a", VCPU: 1, MemoryGB: 1, Units: 1, OnDemand: 0.1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []Entry
		for ; len(data) >= fuzzRecord; data = data[fuzzRecord:] {
			entries = append(entries, Entry{
				Name:     fuzzNames[int(data[0])%len(fuzzNames)],
				VCPU:     int(int8(data[1])),
				Units:    int(int16(binary.LittleEndian.Uint16(data[2:]))),
				MemoryGB: math.Float64frombits(binary.LittleEndian.Uint64(data[4:])),
				OnDemand: math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
			})
		}
		c, err := New(entries)
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.Units < 1 || e.Units&(e.Units-1) != 0 {
				t.Fatalf("accepted %+v: units not a power of two", e)
			}
			if !(e.MemoryGB > 0) || !(e.OnDemand > 0) {
				t.Fatalf("accepted %+v: memory or price not positive", e)
			}
			for _, p := range []float64{e.OnDemand, 0.0071, 1.7320508, 1e300, 5e-324} {
				if p*e.InvUnits() != p/float64(e.Units) {
					t.Fatalf("accepted %+v: p*InvUnits != p/Units for p=%v", e, p)
				}
			}
			if got, ok := c.Lookup(e.Name); !ok || !reflect.DeepEqual(got, e) {
				t.Fatalf("Lookup(%q) = %+v, %v, want %+v", e.Name, got, ok, e)
			}
		}
	})
}
