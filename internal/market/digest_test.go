package market

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"spothost/internal/sim"
)

func hashFloat(h hash.Hash, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}

func hashSet(h hash.Hash, s *Set) {
	for _, id := range s.IDs() {
		tr := s.Trace(id)
		h.Write([]byte(id.String()))
		hashFloat(h, s.OnDemand(id))
		hashFloat(h, float64(tr.Len()))
		for i, t := range tr.Times() {
			hashFloat(h, t)
			hashFloat(h, tr.Prices()[i])
		}
		hashFloat(h, tr.End())
	}
}

// TestUniverseDigest pins both price generators, bit for bit, across
// seeds, spike rates and horizons: Generate over DefaultConfig, and
// GenerateReserve's banded regime with and without its spike overlay.
// The digests were recorded while the calibration was still settable, so
// they hold the calibration constants to the values the experiments used.
func TestUniverseDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 30 universes")
	}
	seeds := []int64{1, 23, 851283}
	horizons := []sim.Duration{3 * sim.Day, 30 * sim.Day}
	for _, c := range []struct {
		name   string
		spikes []float64
		gen    func(seed int64, spikes float64, horizon sim.Duration) (*Set, error)
		want   string
	}{
		{"generate", []float64{0, 2.2, 12}, func(seed int64, spikes float64, horizon sim.Duration) (*Set, error) {
			cfg := DefaultConfig(seed)
			cfg.SpikesPerDay = spikes
			cfg.Horizon = horizon
			return Generate(cfg)
		}, "ec973e0447264106a782a9f75d235a0b81b144fa5b7524b268b46343f4486541"},
		{"reserve", []float64{0, 3}, func(seed int64, spikes float64, horizon sim.Duration) (*Set, error) {
			return GenerateReserve(reserveConfig(seed, spikes, horizon))
		}, "40ce9f3de96f58dca4da93de6378771f03fc960f597a28ae36a96484098892f8"},
	} {
		h := sha256.New()
		for _, seed := range seeds {
			for _, spikes := range c.spikes {
				for _, horizon := range horizons {
					s, err := c.gen(seed, spikes, horizon)
					if err != nil {
						t.Fatal(err)
					}
					hashSet(h, s)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s universe digest = %s, want %s", c.name, got, c.want)
		}
	}
}
