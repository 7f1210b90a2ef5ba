package fleet

import (
	"math"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// floorQuantum is the step-time grain of the fuzzed traces: eight to the
// hour, so generated changes land exactly on hour boundaries as well as
// inside hours.
const floorQuantum = sim.Hour / 8

// floorMarkets decodes fuzz bytes into 1 to 4 markets of 1, 2 or 4 units.
// Byte 0 picks the market count n; the next n bytes the sizes, the next
// n each trace's first step (from two quanta before time 0), and the rest
// come in (gap, price) pairs dealt round-robin to the markets.
func floorMarkets(t *testing.T, data []byte) ([]*market.Trace, []int, []float64) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%4
	units := make([]int, n)
	inv := make([]float64, n)
	points := make([][]market.Point, n)
	for i := range n {
		units[i] = 1 << (at(1+i) % 3)
		inv[i] = 1 / float64(units[i])
		t0 := sim.Time(at(1+n+i)%8-2) * floorQuantum
		points[i] = []market.Point{{T: t0, Price: 0.05}}
	}
	for k, j := 0, 1+2*n; j+1 < len(data); k, j = k+1, j+2 {
		ps := &points[k%n]
		last := (*ps)[len(*ps)-1].T
		gap := sim.Duration(1+int(data[j])%12) * floorQuantum
		*ps = append(*ps, market.Point{T: last + gap, Price: 0.01 + float64(data[j+1])/100})
	}
	traces := make([]*market.Trace, n)
	for i, ps := range points {
		tr, err := market.NewTrace(market.ID{Region: "r", Type: market.InstanceType(rune('a' + i))},
			ps, ps[len(ps)-1].T+floorQuantum)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	return traces, units, inv
}

// bruteFloor is the floor's definition, evaluated from scratch: the
// lowest per-unit price of any u-unit trace over the price in effect at
// start and every change in (start, start+floorWindow).
func bruteFloor(traces []*market.Trace, units []int, inv []float64, u int, start sim.Time) float64 {
	lo := math.Inf(1)
	for i, tr := range traces {
		if units[i] != u {
			continue
		}
		lo = min(lo, tr.PriceAt(start)*inv[i])
		for j, at := range tr.Times() {
			if at > start && at < start+floorWindow {
				lo = min(lo, tr.Prices()[j]*inv[i])
			}
		}
	}
	return lo
}

// FuzzRebalanceFloor checks hourFloor against bruteFloor, and checks that
// no u-unit market's per-unit price dips below the floor at sampled
// instants of the hour. queries holds (hour, offset, market) triples:
// the instant is hour*floorWindow plus a multiple of floorQuantum (zero
// lands exactly on the hour boundary) plus one second when the offset
// byte's top bit is set, and the size is that market's. Hours run in the
// given order, so windows also move backward.
func FuzzRebalanceFloor(f *testing.F) {
	// A query exactly on an hour boundary, and a change exactly at the
	// start of hour 1 (first step at 0, then a gap of 8 quanta).
	f.Add([]byte{0, 0, 2, 7, 50}, []byte{1, 0, 0, 1, 3, 0})
	// Hours past every trace's last point.
	f.Add([]byte{1, 0, 0, 2, 2, 1, 10, 2, 200, 3, 30}, []byte{20, 0, 0, 23, 7, 1, 40, 0x85, 0})
	// Three sizes, one of them held by a single market, and a backward
	// window.
	f.Add([]byte{3, 0, 1, 2, 1, 0, 1, 3, 7, 4, 90, 5, 20, 0, 60, 11, 5, 7, 1, 2, 99},
		[]byte{5, 2, 2, 2, 0x81, 1, 0, 4, 3, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data, queries []byte) {
		traces, units, inv := floorMarkets(t, data)
		fl := newHourFloor(traces, units, inv)
		for q := 0; q+2 < len(queries); q += 3 {
			start := sim.Time(queries[q]%48) * floorWindow
			now := start + sim.Time(queries[q+1]%8)*floorQuantum
			if queries[q+1]&0x80 != 0 {
				now++
			}
			u := units[int(queries[q+2])%len(units)]
			got := fl.at(now, u)
			if want := bruteFloor(traces, units, inv, u, start); got != want {
				t.Fatalf("floor(%v, %d units) = %v, want %v", now, u, got, want)
			}
			for k := range 16 {
				at := start + sim.Time(k)*floorWindow/16
				for i, tr := range traces {
					if units[i] == u && tr.PriceAt(at)*inv[i] < got {
						t.Fatalf("market %d at %v: per-unit price %v below floor %v", i, at, tr.PriceAt(at)*inv[i], got)
					}
				}
			}
		}
	})
}
