package catalog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

func hashFloat(h hash.Hash, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}

// TestTypedUniverseDigest pins 30 seeds of 40-market catalog universes,
// bit for bit, plus the 1/units-weighted cheapest-market envelope a fleet
// anchored on "small" ranks them by, to a digest recorded from the
// sort-based generator and envelope builder before either was rewritten.
func TestTypedUniverseDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 30 typed universes")
	}
	cat := Default()
	h := sha256.New()
	for seed := int64(0); seed < 30; seed++ {
		cfg := market.DefaultConfig(seed)
		cfg.Types = cat.TypeSpecs()
		s, err := market.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range s.IDs() {
			tr := s.Trace(id)
			h.Write([]byte(id.String()))
			hashFloat(h, float64(tr.Len()))
			for i, t := range tr.Times() {
				hashFloat(h, t)
				hashFloat(h, tr.Prices()[i])
			}
			hashFloat(h, tr.End())
		}

		ids, err := cat.CompatibleMarkets(s, "small")
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, len(ids))
		qs := []sim.Time{0}
		for i, id := range ids {
			e, _ := cat.Lookup(id.Type)
			weights[i] = e.InvUnits()
			qs = append(qs, s.Trace(id).Times()...)
		}
		env := s.Envelope(ids, weights)
		slices.Sort(qs)
		cur := env.Cursor()
		for _, q := range slices.Compact(qs) {
			if q >= env.End() {
				break
			}
			id, price, weighted := cur.At(q)
			h.Write([]byte(id.String()))
			hashFloat(h, q)
			hashFloat(h, price)
			hashFloat(h, weighted)
		}
	}
	const want = "aac9e5041dbcb873f644d10d89100a89e8713fedf638b0ac9fa04c2f8f12cbc1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("typed universe digest = %s, want %s", got, want)
	}
}
