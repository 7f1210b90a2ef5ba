// Package catalog is the typed source of truth for instance types: what
// hardware each type carries (vCPU, memory, capacity units) and what it
// costs on demand, plus the AutoSpotting-style compatible-replacement
// rule — "at least as powerful as the anchor type" — that selects a
// fleet's candidate markets from the types × markets cross product. The
// fleet ranks those candidates by effective ($/capacity-unit-hour) spot
// price.
//
// The catalog generalizes the four-size table the paper evaluates
// (market.DefaultTypes) without changing it: Legacy() reproduces those
// four entries bit-for-bit, and Default() extends them with
// compute-optimized, memory-optimized, burstable and double-extra-large
// shapes so a fleet can trade instance size against current spot prices.
// Capacity units are powers of two, so per-unit normalization (price x
// 1/units) is exact in floating point and a single-unit catalog reduces
// bit-identically to the unit-free legacy arithmetic.
package catalog

import (
	"fmt"

	"spothost/internal/market"
)

// Entry describes one instance type: its hardware capacity and its
// baseline on-demand price (regional factors apply on top, exactly as in
// market.TypeSpec).
type Entry struct {
	Name market.InstanceType
	// VCPU and MemoryGB define the compatibility partial order: a
	// candidate can replace an anchor only when both are >= the anchor's.
	VCPU     int
	MemoryGB float64
	// Units is the type's capacity in abstract packing units (the
	// fleet's planning currency). Powers of two only, so spot/Units is
	// exact float arithmetic.
	Units int
	// OnDemand is the baseline on-demand $/hour before the regional
	// factor.
	OnDemand float64
}

// InvUnits returns 1/Units — exact for the power-of-two unit counts New
// enforces, so price*InvUnits == price/Units bit-for-bit.
func (e Entry) InvUnits() float64 { return 1 / float64(e.Units) }

// Catalog is an immutable, validated set of instance types. Entry order
// is preserved from construction (it feeds the market generator, whose
// output is keyed by sorted market ID anyway); lookups go through an
// index.
type Catalog struct {
	entries []Entry
	byName  map[market.InstanceType]Entry
}

// New validates the entries and builds a catalog. Every entry must have
// a unique non-empty name, at least one vCPU, positive memory, a
// power-of-two unit count and a positive on-demand price.
func New(entries []Entry) (*Catalog, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("catalog: no entries")
	}
	c := &Catalog{byName: make(map[market.InstanceType]Entry, len(entries))}
	for i, e := range entries {
		switch {
		case e.Name == "":
			return nil, fmt.Errorf("catalog: entry %d has no name", i)
		case e.VCPU < 1:
			return nil, fmt.Errorf("catalog: type %q has %d vCPU, want >= 1", e.Name, e.VCPU)
		case !(e.MemoryGB > 0): // negated, so NaN is rejected too
			return nil, fmt.Errorf("catalog: type %q has non-positive memory %v", e.Name, e.MemoryGB)
		case e.Units < 1 || e.Units&(e.Units-1) != 0:
			return nil, fmt.Errorf("catalog: type %q has %d units, want a power of two", e.Name, e.Units)
		case !(e.OnDemand > 0):
			return nil, fmt.Errorf("catalog: type %q has non-positive on-demand price %v", e.Name, e.OnDemand)
		}
		if _, dup := c.byName[e.Name]; dup {
			return nil, fmt.Errorf("catalog: duplicate type %q", e.Name)
		}
		c.byName[e.Name] = e
		c.entries = append(c.entries, e)
	}
	return c, nil
}

// MustNew is New for static catalogs that cannot fail.
func MustNew(entries []Entry) *Catalog {
	c, err := New(entries)
	if err != nil {
		panic(err)
	}
	return c
}

// Legacy returns the paper's four-size catalog: exactly the entries of
// market.DefaultTypes with VCPU = Units. A fleet over this catalog (or
// any single type of it) behaves bit-identically to the pre-catalog
// controller — the toggle-equivalence tests pin that.
func Legacy() *Catalog { return MustNew(legacyEntries()) }

// legacyEntries converts market.DefaultTypes to catalog entries with
// VCPU = Units.
func legacyEntries() []Entry {
	types := market.DefaultTypes()
	out := make([]Entry, len(types))
	for i, ts := range types {
		out[i] = Entry{Name: ts.Name, VCPU: ts.Units, MemoryGB: ts.MemoryGB, Units: ts.Units, OnDemand: ts.OnDemand}
	}
	return out
}

// Default returns the ten-type catalog the heterogeneity experiments
// run on: the four legacy general-purpose sizes (identical numbers)
// plus 2015-era-shaped variants — compute-optimized (more vCPU per
// unit, less memory, cheaper per unit), memory-optimized (double
// memory, dearer per unit), a double-extra-large with a scale discount,
// and a burstable type too small to replace anything but itself.
// Crossed with the four default regions this is a 40-market universe,
// ~10x the single-type fleet's.
func Default() *Catalog {
	return MustNew(append(legacyEntries(),
		Entry{Name: "c-large", VCPU: 8, MemoryGB: 3.75, Units: 4, OnDemand: 0.21},
		Entry{Name: "c-xlarge", VCPU: 16, MemoryGB: 7.5, Units: 8, OnDemand: 0.42},
		Entry{Name: "m-large", VCPU: 4, MemoryGB: 15, Units: 4, OnDemand: 0.26},
		Entry{Name: "m-xlarge", VCPU: 8, MemoryGB: 30, Units: 8, OnDemand: 0.52},
		Entry{Name: "xxlarge", VCPU: 16, MemoryGB: 30, Units: 16, OnDemand: 0.88},
		Entry{Name: "t-small", VCPU: 1, MemoryGB: 0.6, Units: 1, OnDemand: 0.035},
	))
}

// Lookup returns the entry named t, with ok=false when absent.
func (c *Catalog) Lookup(t market.InstanceType) (Entry, bool) {
	e, ok := c.byName[t]
	return e, ok
}

// TypeSpecs converts the catalog to the market generator's type table,
// preserving entry order. Legacy().TypeSpecs() equals
// market.DefaultTypes() exactly, so universes generated through the
// catalog are bit-identical to pre-catalog ones.
func (c *Catalog) TypeSpecs() []market.TypeSpec {
	out := make([]market.TypeSpec, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, market.TypeSpec{
			Name: e.Name, Units: e.Units, MemoryGB: e.MemoryGB, OnDemand: e.OnDemand,
		})
	}
	return out
}

// Compatible reports whether cand can stand in for anchor: at least as
// many vCPUs and at least as much memory (the AutoSpotting
// "at-least-as-powerful" rule). Units deliberately do not participate —
// they are the planning currency, not a hardware floor.
func Compatible(anchor, cand Entry) bool {
	return cand.VCPU >= anchor.VCPU && cand.MemoryGB >= anchor.MemoryGB
}

// CompatibleMarkets returns every market of the set whose instance type
// the catalog knows and can replace anchor, sorted by market ID — the
// candidate universe a fleet anchored at that type places over.
func (c *Catalog) CompatibleMarkets(set *market.Set, anchor market.InstanceType) ([]market.ID, error) {
	a, ok := c.byName[anchor]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown instance type %q", anchor)
	}
	var out []market.ID
	for _, id := range set.IDs() {
		e, known := c.byName[id.Type]
		if known && Compatible(a, e) {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("catalog: no market in the set is compatible with %q", anchor)
	}
	return out, nil
}
