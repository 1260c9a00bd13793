// Package analysis implements the paper's closed-form performance
// models: equations (1)–(5) for the average per-block I/O time of each
// strategy, the urn-game analysis of the asymptotic disk concurrency of
// unsynchronized intra-run prefetching, and the transfer-time lower
// bound. Predict picks the form that models a merge shape and returns
// its total; Anchors holds the spot values the paper's prose quotes,
// against which the tests and the anchors figure check the simulator.
package analysis

import (
	"math"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Model carries the parameters the expressions need.
type Model struct {
	S sim.Time // seek time per cylinder
	R sim.Time // average rotational latency (half a revolution)
	T sim.Time // transfer time per block
	M float64  // run length in cylinders (m)

	K int // runs
	D int // disks
	N int // intra-run prefetch depth
}

// FromConfig derives a Model from disk parameters and merge shape.
func FromConfig(p disk.Params, k, d, n, blocksPerRun int) Model {
	return Model{
		S: p.SeekPerCylinder,
		R: p.AvgRotational,
		T: p.TransferPerBlock,
		M: float64(blocksPerRun) / float64(p.BlocksPerCylinder()),
		K: k,
		D: d,
		N: n,
	}
}

// ExpectedMoves returns E[x], the expected seek distance in runs under
// the Kwan–Baer random depletion model with k runs on one disk:
// P(x=0) = 1/k, P(x=i) = 2(k−i)/k², so E[x] = (k²−1)/(3k) ≈ k/3.
func ExpectedMoves(k int) float64 {
	fk := float64(k)
	return (fk*fk - 1) / (3 * fk)
}

// movesPerDisk is the expected seek distance in runs for a disk holding
// k/D runs (⌈k/D⌉ when D does not divide k, per the paper).
func (m Model) movesPerDisk() float64 {
	runsPerDisk := (m.K + m.D - 1) / m.D
	return ExpectedMoves(runsPerDisk)
}

// seekTime converts an expected move count (in runs) to time: each run
// spans M cylinders.
func (m Model) seekTime(moves float64) sim.Time {
	return sim.Time(moves * m.M * float64(m.S))
}

// Eq1NoPrefetchSingleDisk returns equation (1): the average time to
// fetch one block with k runs on one disk and no prefetching,
// τ = m·(k/3)·S + R + T (using the exact (k²−1)/3k moves).
func (m Model) Eq1NoPrefetchSingleDisk() sim.Time {
	return m.seekTime(ExpectedMoves(m.K)) + m.R + m.T
}

// Eq2IntraSingleDisk returns equation (2): intra-run prefetching of N
// blocks on one disk amortizes seek and latency, τ = m·(k/3N)·S + R/N + T.
func (m Model) Eq2IntraSingleDisk() sim.Time {
	n := sim.Time(m.N)
	return m.seekTime(ExpectedMoves(m.K))/n + m.R/n + m.T
}

// Eq3NoPrefetchMultiDisk returns equation (3): k runs spread over D
// disks without prefetching, τ = m·(k/3D)·S + R + T. Only the seek
// shrinks: requests to a disk remain random over its k/D runs.
func (m Model) Eq3NoPrefetchMultiDisk() sim.Time {
	return m.seekTime(m.movesPerDisk()) + m.R + m.T
}

// Eq4IntraMultiDiskSync returns equation (4): synchronized intra-run
// prefetching of N blocks over D disks, τ = m·(k/3ND)·S + R/N + T.
// There is no overlap — the win over (2) is the shorter seek.
func (m Model) Eq4IntraMultiDiskSync() sim.Time {
	n := sim.Time(m.N)
	return m.seekTime(m.movesPerDisk())/n + m.R/n + m.T
}

// Eq5InterMultiDiskSync returns equation (5): synchronized inter-run
// prefetching reading N blocks from every disk on each operation. The
// service time of the batch is dominated by the slowest disk:
// E[max of D uniform latencies] = 2RD/(D+1), and the batch moves N·D
// blocks, so per block τ = m·k·S/(3·N·D²) + 2R/(N(D+1)) + T/D.
func (m Model) Eq5InterMultiDiskSync() sim.Time {
	n := float64(m.N)
	d := float64(m.D)
	seek := float64(m.seekTime(m.movesPerDisk())) / (n * d)
	rot := 2 * float64(m.R) * d / (d + 1) / (n * d)
	xfer := float64(m.T) / d
	return sim.Time(seek + rot + xfer)
}

// Shape is a merge configuration as the closed forms see it.
type Shape struct {
	K, D, N      int // runs, disks, intra-run prefetch depth
	BlocksPerRun int
	InterRun     bool
	Synchronized bool
}

// Form names the closed form that models a Shape.
type Form int

const (
	Eq1           Form = iota // no prefetching, one disk
	Eq2                       // intra-run prefetching, one disk
	Eq3                       // no prefetching, D disks
	Eq4                       // synchronized intra-run prefetching
	Eq4Urn                    // unsynchronized intra-run: eq 4 over the urn-game overlap, for large N
	Eq5                       // synchronized inter-run prefetching, ample cache
	TransferFloor             // unsynchronized inter-run: the kTB/D lower bound only
)

// String labels the form as the anchors figure does.
func (f Form) String() string {
	return [...]string{"eq 1", "eq 2", "eq 3", "eq 4", "eq4/urn", "eq 5", "kTB/D"}[f]
}

// Form picks the closed form that models s.
func (s Shape) Form() Form {
	switch {
	case !s.InterRun && s.D == 1 && s.N == 1:
		return Eq1
	case !s.InterRun && s.D == 1:
		return Eq2
	case !s.InterRun && s.N == 1:
		return Eq3
	case !s.InterRun && s.Synchronized:
		return Eq4
	case !s.InterRun:
		return Eq4Urn
	case s.Synchronized:
		return Eq5
	default:
		return TransferFloor
	}
}

// Predict returns the total merge time s.Form() predicts for s on disks
// with parameters p: a per-block time times the kB blocks merged, eq 4's
// total over the urn game's expected concurrency, or the kTB/D floor.
func Predict(p disk.Params, s Shape) sim.Time {
	m := FromConfig(p, s.K, s.D, s.N, s.BlocksPerRun)
	blocks := sim.Time(s.K * s.BlocksPerRun)
	switch s.Form() {
	case Eq1:
		return m.Eq1NoPrefetchSingleDisk() * blocks
	case Eq2:
		return m.Eq2IntraSingleDisk() * blocks
	case Eq3:
		return m.Eq3NoPrefetchMultiDisk() * blocks
	case Eq4:
		return m.Eq4IntraMultiDiskSync() * blocks
	case Eq4Urn:
		return sim.Time(float64(m.Eq4IntraMultiDiskSync()*blocks) / UrnGameExpectedLength(s.D))
	case Eq5:
		return m.Eq5InterMultiDiskSync() * blocks
	default:
		return m.T * blocks / sim.Time(s.D)
	}
}

// Anchor is one row of the anchors figure: a spot value of §3.1–3.2.
type Anchor struct {
	Case    string  // the figure's row label
	Shape   Shape   // the configuration, with 1000-block runs
	Seconds float64 // the reconstruction's total merge time (DESIGN §1)
	Glyphs  string  // the value as the OCR'd prose shows it, x for a lost digit; "" where none is quoted
}

// Anchors lists the anchors figure's rows in order, the one copy of
// these values. Each is the model's own total at the committed disk
// constants, rounded as quoted; only Glyphs is evidence from the prose.
var Anchors = []Anchor{
	{"no prefetch, k=25, D=1", Shape{K: 25, D: 1, N: 1, BlocksPerRun: 1000}, 339.8, ""},
	{"no prefetch, k=50, D=1", Shape{K: 50, D: 1, N: 1, BlocksPerRun: 1000}, 810, ""},
	{"intra N=10, k=25, D=1", Shape{K: 25, D: 1, N: 10, BlocksPerRun: 1000}, 93.8, "9x.x"},
	{"intra N=10, k=50, D=1", Shape{K: 50, D: 1, N: 10, BlocksPerRun: 1000}, 200.7, "xxx.x"},
	{"no prefetch, k=25, D=5", Shape{K: 25, D: 5, N: 1, BlocksPerRun: 1000}, 287.25, "2xx.x"},
	{"no prefetch, k=50, D=10", Shape{K: 50, D: 10, N: 1, BlocksPerRun: 1000}, 574.5, ""},
	{"sync intra N=10, k=25, D=5", Shape{K: 25, D: 5, N: 10, BlocksPerRun: 1000, Synchronized: true}, 88.6, "xx.x"},
	{"sync inter N=10, k=25, D=5", Shape{K: 25, D: 5, N: 10, BlocksPerRun: 1000, InterRun: true, Synchronized: true}, 20.5, "20.x"},
	{"unsync intra N=30, k=25, D=5 (asymptotic)", Shape{K: 25, D: 5, N: 30, BlocksPerRun: 1000}, 29.4, "29.x"},
}

// UrnGameExpectedLength returns the exact expected length of the
// paper's urn game with D urns: balls are thrown into uniformly random
// urns until one lands in an occupied urn; the length is the number of
// occupied urns (equivalently, E[len] = Σ_{j≥1} Q_j with
// Q_j = Π_{i=1}^{j-1} (D−i)/D). This is the asymptotic average number
// of concurrently busy disks under unsynchronized intra-run prefetching.
func UrnGameExpectedLength(d int) float64 {
	if d <= 0 {
		return 0
	}
	sum := 0.0
	q := 1.0 // Q_1
	for j := 1; j <= d; j++ {
		sum += q
		q *= float64(d-j) / float64(d)
	}
	return sum
}

// UrnGameAsymptote returns the paper's closed-form approximation
// √(πD/2) − 1/3 + O(D^−1/2) for the expected game length.
func UrnGameAsymptote(d int) float64 {
	return math.Sqrt(math.Pi*float64(d)/2) - 1.0/3.0
}

// UrnGameLengthPMF returns P_j for j = 1..D: the probability the game
// has length exactly j.
func UrnGameLengthPMF(d int) []float64 {
	pmf := make([]float64, d)
	q := 1.0
	for j := 1; j <= d; j++ {
		// P_j = (j/D)·Q_j where Q_j is the probability of reaching j.
		pmf[j-1] = q * float64(j) / float64(d)
		q *= float64(d-j) / float64(d)
	}
	return pmf
}

// OptimalNForCache returns a rule-of-thumb prefetch depth for a cache
// of c blocks under combined inter+intra prefetching: the paper
// observes that for a given cache size there is an optimal N balancing
// amortization against success ratio. Because inter-run refills land on
// random runs, per-run buffers random-walk to roughly twice their mean,
// so the knee sits near k·N + D·N ≈ c/2; this returns that N (at least
// 1). The ablation bench validates it against a full simulated N-scan.
func (s Shape) OptimalNForCache(c int) int {
	n := c / (2 * (s.K + s.D))
	if n < 1 {
		return 1
	}
	return n
}
