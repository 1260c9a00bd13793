// Package rng provides a deterministic, splittable pseudo-random number
// generator for the simulation.
//
// Every stochastic component of the simulator (each disk's rotational
// latency, the merge engine's depletion choices, the prefetch run
// selection) draws from its own independent Stream, derived from a single
// experiment seed by Split. This guarantees that
//
//   - a whole experiment is reproducible from one uint64 seed, and
//   - adding or removing draws in one component never perturbs the
//     sequence seen by another (streams are independent by construction).
//
// The generator is xoshiro256**, seeded through SplitMix64, the standard
// pairing recommended by the xoshiro authors. The zero Stream is not
// valid; construct streams with New or Split.
package rng

import "math/bits"

// Stream is a deterministic source of pseudo-random numbers. It is not
// safe for concurrent use; in the simulator each process owns its stream.
type Stream struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, never for simulation draws.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed. Distinct seeds give streams that
// are, for simulation purposes, independent.
func New(seed uint64) *Stream {
	st := seed
	var s Stream
	for i := range s.s {
		s.s[i] = splitMix64(&st)
	}
	// xoshiro256** must not be seeded with the all-zero state; SplitMix64
	// cannot produce four consecutive zeros, so this is unreachable, but
	// guard anyway so a future seeding change cannot break the generator.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives a new independent Stream from r, keyed by label. Splitting
// with distinct labels yields distinct streams; the parent stream is not
// advanced, so the set of children is a pure function of (parent state,
// label).
func (r *Stream) Split(label string) *Stream {
	// Mix the label into the parent state with an FNV-1a style fold,
	// then run the result through New's SplitMix64 diffusion.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	h ^= r.s[0]
	h = (h << 1) | (h >> 63)
	h ^= r.s[2]
	return New(h)
}

// SplitIndexed derives a child stream keyed by a label and an index, for
// per-disk and per-trial streams.
func (r *Stream) SplitIndexed(label string, index int) *Stream {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	h ^= uint64(index) * 0x9e3779b97f4a7c15
	h ^= r.s[0]
	h = (h << 1) | (h >> 63)
	h ^= r.s[2]
	return New(h)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Shuffle permutes the first n elements uniformly using swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
