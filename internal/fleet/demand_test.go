package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"spothost/internal/sim"
)

// TestDiurnalDemandDigest pins the default demand curve bit for bit: the
// float64 bits of At every 37 s over a 30-day month, for three seeds. The
// step is prime to the 30-minute noise grid and the hour, so samples land
// on the ramps, the peak plateau and the off-peak floor at varying
// phases. Every run-time rounding of the curve's constants shows here;
// for example, folding 1-NoiseAR² at compile time moves the noise series.
func TestDiurnalDemandDigest(t *testing.T) {
	const horizon = 30 * sim.Day
	h := sha256.New()
	var buf [8]byte
	for _, seed := range []int64{0, 7, 851283} {
		d, err := NewDiurnalDemand(DefaultDiurnalConfig(horizon, seed))
		if err != nil {
			t.Fatal(err)
		}
		for at := sim.Time(0); at <= horizon; at += 37 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.At(at)))
			h.Write(buf[:])
		}
	}
	const want = "a98aea11fd4ce61f7dc956637f65c447baf211c022b49798b953237032c06683"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("demand digest = %s, want %s", got, want)
	}
}
