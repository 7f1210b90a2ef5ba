package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"spothost/internal/market"
)

func hashFloat(h hash.Hash, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}

func hashTimeline(h hash.Hash, tl Timeline) {
	hashFloat(h, tl.Duration)
	hashFloat(h, tl.Downtime)
	hashFloat(h, tl.Degraded)
	hashFloat(h, float64(tl.Rounds))
	if tl.MemoryLost {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// TestMigrationTimelineDigest pins the migration model, bit for bit:
// planned and live timelines and restore times for every mechanism under
// both presets, over an intra-region move, the three calibrated WAN pairs
// and one unknown pair that falls back to the default link, for a small
// VM and a large one whose pre-copy hits the round limit. The digest was
// recorded while the Table 2 constants were still settable, so it holds
// them to the values the experiments used.
func TestMigrationTimelineDigest(t *testing.T) {
	specs := []Spec{
		hostedVM,
		{MemoryGB: 15, DirtyRateMBps: 30, DiskGB: 8, Units: 8},
	}
	pairs := [][2]market.Region{
		{"us-east-1a", "us-east-1b"},
		{"us-east-1a", "us-west-1a"},
		{"us-east-1b", "eu-west-1a"},
		{"eu-west-1a", "us-west-1a"},
		{"us-east-1a", "ap-south-1a"},
	}
	mechs := append(Mechanisms(), Naive)
	h := sha256.New()
	for _, p := range []Params{DefaultParams(), PessimisticParams()} {
		for _, s := range specs {
			for _, m := range mechs {
				down, degraded := restore(s, m, p)
				hashFloat(h, down)
				hashFloat(h, degraded)
			}
			for _, pr := range pairs {
				link := wanLink(p, pr[0], pr[1])
				h.Write([]byte(pr[0] + "|" + pr[1]))
				hashTimeline(h, LiveMigrationTimeline(s, liveBandwidth(p, link), p))
				for _, m := range mechs {
					hashTimeline(h, PlannedTimeline(s, m, p, link))
				}
			}
		}
	}
	const want = "01bbfd876352e19f1321a48739677575ecb5ea14d843a514be5680716e6c9a62"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("migration timeline digest = %s, want %s", got, want)
	}
}
