package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary not all zero")
	}
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single-observation summary wrong")
	}
}

func TestSummaryMatchesNaiveComputation(t *testing.T) {
	err := quick.Check(func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		sum := 0.0
		for _, v := range raw {
			s.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		wantVar := ss / float64(len(raw)-1)
		return almost(s.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almost(s.Variance(), wantVar, 1e-6*(1+wantVar))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCI95KnownCase(t *testing.T) {
	var s Summary
	for _, x := range []float64{10, 12, 14, 16, 18} {
		s.Add(x)
	}
	// sd = sqrt(10), se = sqrt(2), t(4) = 2.776
	want := 2.776 * math.Sqrt2 * math.Sqrt(10) / math.Sqrt(10)
	_ = want
	se := s.StdErr()
	if !almost(s.CI95(), 2.776*se, 1e-9) {
		t.Fatalf("CI95 = %v, want %v", s.CI95(), 2.776*se)
	}
}

func TestTCritTails(t *testing.T) {
	if tCrit95(1) != 12.706 {
		t.Fatal("df=1 critical value wrong")
	}
	if tCrit95(1000) != 1.96 {
		t.Fatal("large-df critical value wrong")
	}
	if tCrit95(0) != 0 {
		t.Fatal("df=0 should be 0")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i := 0; i < 10; i++ {
		if h.Bin(i) != 1 {
			t.Fatalf("bin %d = %d, want 1", i, h.Bin(i))
		}
	}
	h.Add(-1)
	h.Add(11)
	under, over := h.OutOfRange()
	if under != 1 || over != 1 {
		t.Fatalf("under/over = %d/%d", under, over)
	}
	if h.N() != 12 {
		t.Fatalf("n = %d", h.N())
	}
}

func TestHistogramMeanAndQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5)
	}
	if !almost(h.Mean(), 50, 1e-9) {
		t.Fatalf("mean = %v", h.Mean())
	}
	med := h.Quantile(0.5)
	if med < 49 || med > 51 {
		t.Fatalf("median = %v", med)
	}
	p90 := h.Quantile(0.9)
	if p90 < 89 || p90 > 91 {
		t.Fatalf("p90 = %v", p90)
	}
}

func TestHistogramInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Add(5)
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q < 5 || q > 6 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestSummaryStringSmoke(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(2)
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
