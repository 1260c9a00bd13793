package rng

import "math"

// UniformRange returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Stream) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: UniformRange with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Zipf draws from a Zipf distribution over {0, ..., n-1} with exponent
// theta >= 0 (theta == 0 is uniform). It is used by the skewed depletion
// workload extension. The implementation precomputes nothing; callers
// that need many draws should use NewZipf.
type Zipf struct {
	n     int
	theta float64
	// cdf[i] is the cumulative probability of values <= i.
	cdf []float64
}

// NewZipf builds a Zipf sampler over {0, ..., n-1} with the given
// exponent. It panics if n <= 0 or theta < 0.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	if theta < 0 {
		panic("rng: NewZipf with theta < 0")
	}
	z := &Zipf{n: n, theta: theta, cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// N returns the size of the sampler's support.
func (z *Zipf) N() int { return z.n }

// Theta returns the sampler's exponent.
func (z *Zipf) Theta() float64 { return z.theta }

// Draw samples one value from the distribution using stream r.
func (z *Zipf) Draw(r *Stream) int {
	u := r.Float64()
	// Binary search for the first index with cdf >= u.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
