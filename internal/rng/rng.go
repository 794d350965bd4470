// Package rng provides a small, deterministic pseudo-random number
// generator with independent streams and the variate distributions used
// by the simulation study (uniform, exponential, Bernoulli).
//
// The simulator must be reproducible across runs and platforms: the same
// seed must generate the same trace so that different checkpointing
// protocols can be compared on identical executions. We therefore avoid
// math/rand's global state and implement SplitMix64, whose output is
// fully specified by its 64-bit seed.
package rng

import "math/bits"

// Source is a deterministic 64-bit PRNG (SplitMix64). The zero value is a
// valid generator seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewStream derives a stream from a base seed and a stream identifier, so
// a simulation can give each stochastic component (workload, mobility of
// each host, ...) its own stream and stay reproducible when components
// are added or removed.
//
// The id is not mixed: the state starts at seed XOR γ·(id+1), γ being
// SplitMix64's own increment, and advances one step. Where the XOR acts
// as an addition, stream id at step k+d is stream id+d at step k, so some
// seeds (seed 1 among them) have lagged copies (ROADMAP item 2). A real
// mixing round moves every committed table; it waits for the re-baseline.
func NewStream(seed uint64, id uint64) *Source {
	s := New(seed ^ (0x9e3779b97f4a7c15 * (id + 1)))
	s.Uint64()
	return s
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	// Use the top 53 bits for a dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Exp returns an exponentially distributed variate with the given mean.
// It panics if mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	u := s.Float64()
	// 1-u is in (0,1], so the log is finite. The product is rounded before
	// a caller adds it to a clock: fused there, it would round differently
	// on different architectures.
	return float64(-mean * logUnit(1-u))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}
