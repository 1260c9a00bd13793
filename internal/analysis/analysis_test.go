package analysis

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/rng"
)

func paperModel(k, d, n int) Model {
	return FromConfig(disk.PaperParams(), k, d, n, 1000)
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestExpectedMovesExact(t *testing.T) {
	// E[x] = (k²−1)/3k; for k=25: 624/75 = 8.32; for k=50: 2499/150 = 16.66.
	if !almost(ExpectedMoves(25), 8.32, 1e-12) {
		t.Fatalf("E[x] k=25 = %v", ExpectedMoves(25))
	}
	if !almost(ExpectedMoves(50), 16.66, 1e-12) {
		t.Fatalf("E[x] k=50 = %v", ExpectedMoves(50))
	}
	// ≈ k/3 for large k.
	if !almost(ExpectedMoves(1000), 1000.0/3, 0.01) {
		t.Fatalf("E[x] k=1000 = %v", ExpectedMoves(1000))
	}
}

func TestExpectedMovesMatchesDistribution(t *testing.T) {
	// Direct expectation over the stated PMF.
	for _, k := range []int{2, 5, 25, 50} {
		want := 0.0
		fk := float64(k)
		for i := 1; i <= k-1; i++ {
			want += float64(i) * 2 * (fk - float64(i)) / (fk * fk)
		}
		if !almost(ExpectedMoves(k), want, 1e-12) {
			t.Fatalf("k=%d: formula %v != direct %v", k, ExpectedMoves(k), want)
		}
	}
}

func TestExpectedMovesMatchesMonteCarlo(t *testing.T) {
	// The moves model: the head sits at run i, the next request targets
	// run j, both uniform; distance |i−j|.
	r := rng.New(5)
	const k, draws = 25, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		a, b := r.Intn(k), r.Intn(k)
		d := a - b
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	mc := sum / draws
	if !almost(mc, ExpectedMoves(k), 0.05) {
		t.Fatalf("monte carlo %v vs formula %v", mc, ExpectedMoves(k))
	}
}

// The anchor tests check the rows of Anchors by the closed form that
// models them. checkAnchors requires want rows of the form and checks
// each: the value is Predict's total rounded as quoted (within half a
// unit of its last digit), and it fits the glyphs the prose keeps.
func checkAnchors(t *testing.T, form Form, want int) {
	t.Helper()
	n := 0
	for _, a := range Anchors {
		if a.Shape.Form() != form {
			continue
		}
		n++
		t.Run(a.Case, func(t *testing.T) {
			got := Predict(disk.PaperParams(), a.Shape).Seconds()
			half := 0.5 * math.Pow10(-decimals(strconv.FormatFloat(a.Seconds, 'f', -1, 64)))
			if math.Abs(got-a.Seconds) > half+1e-9 {
				t.Errorf("%v predicts %v s, which does not round to %v s", form, got, a.Seconds)
			}
			if !fitsGlyphs(a.Seconds, a.Glyphs) {
				t.Errorf("%v s does not read as the prose's %q", a.Seconds, a.Glyphs)
			}
		})
	}
	if n != want {
		t.Fatalf("%d %v anchors, want %d", n, form, want)
	}
}

// TestAnchors requires the figure's nine rows; the counts the tests
// below require sum to nine, so each row is checked once.
func TestAnchors(t *testing.T) {
	if len(Anchors) != 9 {
		t.Fatalf("%d anchors, want the figure's 9 rows", len(Anchors))
	}
}

func TestEq1Anchors(t *testing.T) {
	checkAnchors(t, Eq1, 2)
	if tau := float64(paperModel(25, 1, 1).Eq1NoPrefetchSingleDisk()); !almost(tau, 13.59, 0.02) {
		t.Fatalf("eq1 k=25: τ = %v ms, want ≈13.59", tau)
	}
}

func TestEq2Anchors(t *testing.T) {
	checkAnchors(t, Eq2, 2)
}

func TestEq3Anchors(t *testing.T) {
	// Exact moves for 5 runs/disk: E[x] = (25−1)/15 = 1.6, so
	// τ = 15.625·1.6·0.02 + 10.99 = 11.49 ms → 287.25 s (the k/3D
	// approximation gives 287.8; the paper prose shows "2xx.x").
	checkAnchors(t, Eq3, 2)
}

func TestEq4Anchor(t *testing.T) {
	checkAnchors(t, Eq4, 1)
}

func TestEq5Anchor(t *testing.T) {
	checkAnchors(t, Eq5, 1)
	if tau := float64(paperModel(25, 5, 10).Eq5InterMultiDiskSync()); !almost(tau, 0.820, 0.005) {
		t.Fatalf("eq5 τ = %v ms, want ≈0.820", tau)
	}
}

func TestIntraUnsyncAsymptoticAnchor(t *testing.T) {
	// sync(N=30, k=25, D=5) / 2.5104 ≈ 29.4 s.
	checkAnchors(t, Eq4Urn, 1)
	// k=50, D=10, N=30: sync / 3.66 ≈ 40.4 s (DESIGN §1), off the figure.
	s := Shape{K: 50, D: 10, N: 30, BlocksPerRun: 1000}
	if got := Predict(disk.PaperParams(), s).Seconds(); !almost(got, 40.4, 0.4) {
		t.Fatalf("asymptotic unsync k=50 D=10 = %v s", got)
	}
}

// fitsGlyphs reports whether secs, printed to the glyphs' decimals,
// matches them digit for digit, x matching any digit. Empty glyphs
// match every value.
func fitsGlyphs(secs float64, glyphs string) bool {
	if glyphs == "" {
		return true
	}
	s := strconv.FormatFloat(secs, 'f', decimals(glyphs), 64)
	if len(s) != len(glyphs) {
		return false
	}
	for i := range s {
		if glyphs[i] != 'x' && glyphs[i] != s[i] {
			return false
		}
	}
	return true
}

// decimals returns the number of digits after the point in a printed
// number.
func decimals(num string) int {
	if i := strings.IndexByte(num, '.'); i >= 0 {
		return len(num) - i - 1
	}
	return 0
}

// TestForm pins the closed form chosen for each kind of shape.
func TestForm(t *testing.T) {
	cases := []struct {
		s    Shape
		want Form
	}{
		{Shape{K: 25, D: 1, N: 1}, Eq1},
		{Shape{K: 25, D: 1, N: 10, Synchronized: true}, Eq2},
		{Shape{K: 25, D: 5, N: 1, Synchronized: true}, Eq3},
		{Shape{K: 25, D: 5, N: 10, Synchronized: true}, Eq4},
		{Shape{K: 25, D: 5, N: 10}, Eq4Urn},
		{Shape{K: 25, D: 5, N: 10, InterRun: true, Synchronized: true}, Eq5},
		{Shape{K: 25, D: 1, N: 1, InterRun: true}, TransferFloor},
	}
	for _, c := range cases {
		if got := c.s.Form(); got != c.want {
			t.Errorf("%+v: form %v, want %v", c.s, got, c.want)
		}
	}
}

func TestEquationOrdering(t *testing.T) {
	// For any prefetching depth, more machinery can only help:
	// eq1 >= eq2 (N amortization), eq1 >= eq3 (seek sharing),
	// eq3 >= eq4, eq4 >= eq5 for the paper's configuration.
	m := paperModel(50, 5, 10)
	e1 := m.Eq1NoPrefetchSingleDisk()
	e2 := m.Eq2IntraSingleDisk()
	e3 := m.Eq3NoPrefetchMultiDisk()
	e4 := m.Eq4IntraMultiDiskSync()
	e5 := m.Eq5InterMultiDiskSync()
	if !(e1 >= e2 && e1 >= e3 && e3 >= e4 && e4 >= e5) {
		t.Fatalf("ordering violated: %v %v %v %v %v", e1, e2, e3, e4, e5)
	}
}

func TestEqLimits(t *testing.T) {
	// As N grows, eq2 and eq4 approach T.
	m := paperModel(25, 5, 100000)
	if got := float64(m.Eq2IntraSingleDisk()); !almost(got, 2.66, 0.01) {
		t.Fatalf("eq2 N→∞ = %v", got)
	}
	if got := float64(m.Eq4IntraMultiDiskSync()); !almost(got, 2.66, 0.01) {
		t.Fatalf("eq4 N→∞ = %v", got)
	}
	// eq5 approaches T/D.
	if got := float64(m.Eq5InterMultiDiskSync()); !almost(got, 2.66/5, 0.01) {
		t.Fatalf("eq5 N→∞ = %v", got)
	}
}

func TestUrnGameExactValues(t *testing.T) {
	// The paper evaluates the first two terms for D = 5, 10, 20 and
	// reports average overlaps 2.51, 3.66 and 6.29. The exact sum for
	// D=5 is 2.5104; for 10, 3.6606; for 20, ~5.29379... using the
	// recurrence. Verify against a direct computation.
	cases := map[int]float64{
		5:  2.5104,
		10: 3.660216,
	}
	for d, want := range cases {
		if got := UrnGameExpectedLength(d); !almost(got, want, 1e-4) {
			t.Fatalf("urn(%d) = %v, want %v", d, got, want)
		}
	}
}

func TestUrnGamePMFSumsToOne(t *testing.T) {
	for _, d := range []int{1, 2, 5, 10, 20, 64} {
		pmf := UrnGameLengthPMF(d)
		sum, mean := 0.0, 0.0
		for j, p := range pmf {
			sum += p
			mean += float64(j+1) * p
		}
		if !almost(sum, 1, 1e-9) {
			t.Fatalf("pmf(%d) sums to %v", d, sum)
		}
		if !almost(mean, UrnGameExpectedLength(d), 1e-9) {
			t.Fatalf("pmf mean %v != expected length %v", mean, UrnGameExpectedLength(d))
		}
	}
}

func TestUrnGameMonteCarlo(t *testing.T) {
	r := rng.New(77)
	for _, d := range []int{5, 10} {
		const rounds = 100000
		sum := 0
		for i := 0; i < rounds; i++ {
			occupied := make([]bool, d)
			length := 0
			for {
				u := r.Intn(d)
				if occupied[u] {
					break
				}
				occupied[u] = true
				length++
				if length == d {
					break
				}
			}
			sum += length
		}
		mc := float64(sum) / rounds
		if !almost(mc, UrnGameExpectedLength(d), 0.02) {
			t.Fatalf("urn(%d) MC = %v, formula %v", d, mc, UrnGameExpectedLength(d))
		}
	}
}

func TestUrnGameAsymptoteQuality(t *testing.T) {
	for _, d := range []int{5, 10, 20, 100} {
		exact := UrnGameExpectedLength(d)
		approx := UrnGameAsymptote(d)
		if math.Abs(exact-approx) > 0.15 {
			t.Fatalf("asymptote for D=%d: exact %v approx %v", d, exact, approx)
		}
	}
}

func TestUrnGameSqrtDScaling(t *testing.T) {
	// The key qualitative claim: concurrency grows like √D, far below D.
	e20 := UrnGameExpectedLength(20)
	e5 := UrnGameExpectedLength(5)
	ratio := e20 / e5
	if !(ratio > 1.8 && ratio < 2.2) { // √(20/5) = 2
		t.Fatalf("√D scaling violated: ratio = %v", ratio)
	}
	if e20 >= 20.0/2 {
		t.Fatalf("concurrency %v suspiciously close to D", e20)
	}
}

func TestFloors(t *testing.T) {
	// Unsynchronized inter-run prefetching is bounded by kTB/D.
	floor := func(k, d int) float64 {
		return Predict(disk.PaperParams(), Shape{K: k, D: d, N: 10, BlocksPerRun: 1000, InterRun: true}).Seconds()
	}
	if got := floor(25, 1); !almost(got, 66.5, 0.01) {
		t.Fatalf("single floor = %v", got)
	}
	if got := floor(25, 5); !almost(got, 13.3, 0.01) {
		t.Fatalf("multi floor = %v", got)
	}
	if got := floor(50, 5); !almost(got, 26.6, 0.01) {
		t.Fatalf("k=50 D=5 floor = %v", got)
	}
}

func TestOptimalNForCache(t *testing.T) {
	s := Shape{K: 25, D: 5}
	if got := s.OptimalNForCache(600); got != 10 { // 600/(2*(25+5))
		t.Fatalf("optimal N = %d", got)
	}
	if got := s.OptimalNForCache(10); got != 1 {
		t.Fatalf("tiny cache optimal N = %d", got)
	}
}

func TestUrnGameEdgeCases(t *testing.T) {
	if UrnGameExpectedLength(0) != 0 {
		t.Fatal("D=0 should be 0")
	}
	if UrnGameExpectedLength(1) != 1 {
		t.Fatal("D=1 should be 1")
	}
}

func TestCeilingRunsPerDisk(t *testing.T) {
	// k=7, D=2 → ⌈7/2⌉ = 4 runs per disk in the seek expression.
	m := paperModel(7, 2, 1)
	want := m.seekTime(ExpectedMoves(4)) + m.R + m.T
	if got := m.Eq3NoPrefetchMultiDisk(); got != want {
		t.Fatalf("eq3 with non-dividing D: %v != %v", got, want)
	}
}
