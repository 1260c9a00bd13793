// Package stats provides the summary statistics the experiment harness
// reports: running means and variances, confidence intervals across
// simulation trials, and simple histograms.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of observations with Welford's online
// algorithm, so variance is numerically stable regardless of magnitude.
// The zero value is ready to use.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean. For the small trial counts typical of the experiments it
// uses Student-t critical values; beyond the table it uses 1.96.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCrit95(int(s.n-1)) * s.StdErr()
}

// RelCI returns a confidence half-width as a fraction of the mean's
// magnitude — the stopping statistic for adaptive-trial loops
// ("simulate until the estimate is within x% of itself"). It is 0 when
// the half-width is 0 and +Inf when the mean is exactly zero while the
// half-width is not.
func RelCI(halfWidth, mean float64) float64 {
	if halfWidth == 0 {
		return 0
	}
	if mean == 0 {
		return math.Inf(1)
	}
	return halfWidth / math.Abs(mean)
}

// RelCI95 returns RelCI of the summary's 95% confidence half-width and
// mean.
func (s *Summary) RelCI95() float64 { return RelCI(s.CI95(), s.mean) }

// tCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom.
func tCrit95(df int) float64 {
	table := []float64{
		0,                                                             // df 0 unused
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g [%.4g, %.4g]",
		s.n, s.mean, s.CI95(), s.min, s.max)
}

// Histogram counts observations in equal-width bins over [lo, hi);
// values outside the range land in the under/overflow counters.
type Histogram struct {
	lo, hi float64
	bins   []int64
	under  int64
	over   int64
	n      int64
	sum    float64
}

// NewHistogram builds a histogram with nbins bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
		if i >= len(h.bins) { // float edge case at hi boundary
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the mean of all observations (including out-of-range).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// Quantile returns an approximate q-quantile (0 <= q <= 1) assuming
// observations are uniform within bins. Out-of-range observations are
// clamped to the range edges.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	acc := float64(h.under)
	if acc >= target {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.bins))
	for i, c := range h.bins {
		if acc+float64(c) >= target && c > 0 {
			frac := (target - acc) / float64(c)
			return h.lo + (float64(i)+frac)*width
		}
		acc += float64(c)
	}
	return h.hi
}
