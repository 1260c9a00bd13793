package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d equal draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("disks")
	c2 := parent.Split("merge")
	c3 := parent.Split("disks") // same label: must be identical
	if c1.Uint64() != c3.Uint64() {
		t.Fatal("Split with same label from same parent state differed")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("Split with different labels produced equal draws")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("x")
	_ = a.Split("y")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestSplitIndexedDistinct(t *testing.T) {
	parent := New(3)
	seen := make(map[uint64]int)
	for i := 0; i < 64; i++ {
		v := parent.SplitIndexed("disk", i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("SplitIndexed %d and %d produced equal first draws", i, j)
		}
		seen[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(14)
	const buckets, draws = 10, 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: count %d deviates from expected %v", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(16)
	xs := []int{1, 2, 2, 3, 5, 8, 13}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("Shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(18)
	for i := 0; i < 10000; i++ {
		v := r.UniformRange(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("UniformRange(3,7) = %v", v)
		}
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	r := New(20)
	z := NewZipf(8, 0)
	var count [8]int
	const draws = 80000
	for i := 0; i < draws; i++ {
		count[z.Draw(r)]++
	}
	want := float64(draws) / 8
	for b, c := range count {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("zipf(theta=0) bucket %d: %d, want ~%v", b, c, want)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	r := New(21)
	z := NewZipf(16, 1.0)
	var count [16]int
	for i := 0; i < 100000; i++ {
		count[z.Draw(r)]++
	}
	if !(count[0] > count[5] && count[5] > count[15]) {
		t.Fatalf("zipf(theta=1) counts not decreasing: %v", count)
	}
}

func TestZipfDrawInRange(t *testing.T) {
	r := New(22)
	err := quick.Check(func(n uint8, th uint8) bool {
		m := int(n%32) + 1
		z := NewZipf(m, float64(th%3))
		v := z.Draw(r)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUnbiasedSmallN(t *testing.T) {
	r := New(23)
	var count [3]int
	for i := 0; i < 300000; i++ {
		count[r.Uint64n(3)]++
	}
	for b, c := range count {
		if math.Abs(float64(c)-100000) > 5*math.Sqrt(100000) {
			t.Fatalf("Uint64n(3) bucket %d: %d", b, c)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func TestDistributionValidation(t *testing.T) {
	r := New(30)
	for _, fn := range []func(){
		func() { r.UniformRange(7, 3) },
		func() { NewZipf(0, 1) },
		func() { NewZipf(4, -0.5) },
		func() { r.Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid distribution arguments did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestZipfAccessors(t *testing.T) {
	z := NewZipf(9, 0.75)
	if z.N() != 9 || z.Theta() != 0.75 {
		t.Fatalf("N/Theta = %d/%v", z.N(), z.Theta())
	}
}

func TestUint64nLargeRange(t *testing.T) {
	// Exercise the rejection branch with a range just above 2^63, where
	// the acceptance threshold is substantial.
	r := New(31)
	n := uint64(1)<<63 + 12345
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(n); v >= n {
			t.Fatalf("Uint64n(%d) = %d", n, v)
		}
	}
}
