// Package randx provides seeded random streams and the probability
// distributions used throughout the spothost simulators.
//
// Every stochastic component of the simulation draws from its own Stream,
// derived deterministically from a root seed and a component label, so a
// simulation run is reproducible bit-for-bit from its root seed regardless
// of the order in which components are constructed.
package randx

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// countingSource wraps the core math/rand source and counts how many raw
// 64-bit steps it has produced. Counting at the source level (rather than
// the variate level) makes a stream's position checkpointable even through
// rejection sampling: every Int63/Uint64 call advances the underlying
// generator by exactly one step, so (seed, n) fully determines the state.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// State is a serializable snapshot of a Stream's position: the seed it was
// created with and the number of raw source steps consumed since. Restore
// rebuilds a stream that continues the exact same variate sequence.
type State struct {
	Seed int64
	N    uint64
}

// Stream is a deterministic source of random variates. It wraps math/rand
// with a private source so independent components never share state.
type Stream struct {
	rng  *rand.Rand
	src  *countingSource
	seed int64
}

// NewStream returns a stream seeded directly with seed.
func NewStream(seed int64) *Stream {
	s64, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		// rand.NewSource has returned a Source64 since Go 1.8.
		panic("randx: rand.NewSource is not a Source64")
	}
	cs := &countingSource{src: s64}
	return &Stream{rng: rand.New(cs), src: cs, seed: seed}
}

// State returns the stream's current position for later Restore.
func (s *Stream) State() State {
	return State{Seed: s.seed, N: s.src.n}
}

// Restore rebuilds a stream at the given position: the same seed, advanced
// by the same number of raw source steps. The restored stream produces the
// identical variate sequence the original would from that point on.
func Restore(st State) *Stream {
	s := NewStream(st.Seed)
	for s.src.n < st.N {
		s.src.Uint64()
	}
	return s
}

// Derive returns a new stream whose seed is a deterministic function of the
// root seed and a component label. Streams derived with different labels are
// statistically independent for simulation purposes.
func Derive(root int64, label string) *Stream {
	h := fnv.New64a()
	// Mix the root seed into the hash byte-by-byte.
	var b [8]byte
	u := uint64(root)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return NewStream(int64(h.Sum64()))
}

// Derive returns a sub-stream of s labelled by label, mixing the stream's
// own next value with the label. Useful for fanning a stream out to many
// dynamically created entities.
func (s *Stream) Derive(label string) *Stream {
	return Derive(s.rng.Int63(), label)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// Exp returns an exponential variate with the given mean. A non-positive
// mean yields 0.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// Lognormal returns a lognormal variate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Stream) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.rng.NormFloat64())
}

// LognormalMeanCV returns a lognormal variate parameterized by its own mean
// and coefficient of variation (stddev/mean), which is more convenient when
// calibrating to measured latencies. A non-positive mean yields 0; a
// non-positive cv collapses to the constant mean.
func (s *Stream) LognormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.Lognormal(mu, math.Sqrt(sigma2))
}

// BoundedPareto returns a Pareto variate truncated (by resampling the CDF)
// to [xm, max].
func (s *Stream) BoundedPareto(xm, alpha, max float64) float64 {
	if max <= xm {
		return xm
	}
	// Inverse-CDF of the bounded Pareto distribution.
	u := s.rng.Float64()
	l := math.Pow(xm, alpha)
	h := math.Pow(max, alpha)
	return math.Pow(-(u*h-u*l-h)/(h*l), -1/alpha)
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.rng.Float64() < p
}
