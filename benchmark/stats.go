package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs in ascending order without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count, and NaN for none.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]), and NaN for none.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first.
var tailCandidates = []float64{99, 95, 90, 50}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten of n samples beyond it, so the tail is set by more than a
// handful of outliers. Below 20 samples no candidate qualifies and the
// maximum (100) is reported instead.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 100
}

// quartiles returns the three cut points of xs into four groups, by the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads printed here match spreads computed from results.json by hand.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
