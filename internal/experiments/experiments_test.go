package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/table"
)

// quick returns fast options for tests: 1 trial, coarse grids.
func quick() Options { return Options{Trials: 1, Seed: 7, Quick: true} }

func runSpec(t *testing.T, id string) Output {
	t.Helper()
	spec, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func seriesByLabel(t *testing.T, f *table.Figure, label string) *table.Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", f.ID, label)
	return nil
}

func TestAllSpecsDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.ID] {
			t.Fatalf("duplicate spec id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Title == "" || s.Run == nil {
			t.Fatalf("spec %q incomplete", s.ID)
		}
	}
}

func TestFindUnknown(t *testing.T) {
	if _, err := Find("9.9z"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig32aShape(t *testing.T) {
	out := runSpec(t, "3.2a")
	if len(out.Figures) != 1 {
		t.Fatalf("figures = %d", len(out.Figures))
	}
	f := out.Figures[0]
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	single := seriesByLabel(t, f, "Demand Run Only (25 runs, 1 disk)")
	multi := seriesByLabel(t, f, "Demand Run Only (25 runs, 5 disks)")
	inter := seriesByLabel(t, f, "All Disks One Run (25 runs, 5 disks)")

	// Paper shape 1: every curve decreases with N.
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]*1.02 {
				t.Fatalf("series %q not decreasing: %v", s.Label, s.Y)
			}
		}
	}
	// Paper shape 2: at every N, inter <= multi-intra <= single-intra.
	for i := range single.X {
		if !(inter.Y[i] <= multi.Y[i] && multi.Y[i] <= single.Y[i]) {
			t.Fatalf("ordering violated at N=%v: %v %v %v",
				single.X[i], inter.Y[i], multi.Y[i], single.Y[i])
		}
	}
	// Paper shape 3: N=1 single disk is the Kwan–Baer baseline ≈ 340 s.
	if single.Y[0] < 320 || single.Y[0] > 360 {
		t.Fatalf("baseline = %v s", single.Y[0])
	}
}

func TestFig32bShape(t *testing.T) {
	out := runSpec(t, "3.2b")
	f := out.Figures[0]
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	d10 := seriesByLabel(t, f, "All Disks One Run (50 runs, 10 disks)")
	d5 := seriesByLabel(t, f, "All Disks One Run (50 runs, 5 disks)")
	// 10 disks dominates 5 disks for the inter-run strategy.
	for i := range d10.X {
		if d10.Y[i] > d5.Y[i] {
			t.Fatalf("10 disks slower at N=%v: %v vs %v", d10.X[i], d10.Y[i], d5.Y[i])
		}
	}
}

func TestFig33Shape(t *testing.T) {
	out := runSpec(t, "3.3")
	f := out.Figures[0]
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	interU := seriesByLabel(t, f, "All Disks One Run (Unsynchronized)")
	intraS := seriesByLabel(t, f, "Demand Run Only (Synchronized)")
	// Paper: inter-run with N=10 outperforms intra-run over the whole
	// CPU-speed range; sync curves rise faster than unsync.
	for i := range interU.X {
		if interU.Y[i] >= intraS.Y[i] {
			t.Fatalf("inter unsync not best at merge time %v", interU.X[i])
		}
	}
	last := len(intraS.Y) - 1
	if intraS.Y[last] <= intraS.Y[0] {
		t.Fatal("sync curve did not rise with CPU cost")
	}
}

func TestFig35aShapes(t *testing.T) {
	out := runSpec(t, "3.5a")
	if len(out.Figures) != 2 {
		t.Fatalf("want time+ratio figures, got %d", len(out.Figures))
	}
	ft, fr := out.Figures[0], out.Figures[1]
	if ft.ID != "3.5a" || fr.ID != "3.6a" {
		t.Fatalf("ids = %s/%s", ft.ID, fr.ID)
	}
	// Success ratio rises with cache size for every N; time falls.
	for _, s := range fr.Series {
		first, lastV := s.Y[0], s.Y[len(s.Y)-1]
		if lastV < first {
			t.Fatalf("success ratio fell with cache: %q %v", s.Label, s.Y)
		}
		if lastV < 0.95 {
			t.Fatalf("ample cache ratio = %v for %q", lastV, s.Label)
		}
	}
	for _, s := range ft.Series {
		if s.Y[len(s.Y)-1] > s.Y[0]*1.02 {
			t.Fatalf("time rose with cache for %q: %v", s.Label, s.Y)
		}
	}
	// Paper shape: at the largest cache, bigger N wins (amortization);
	// at the smallest, N=10's time must not beat N=1 substantially
	// (its success ratio starves).
	n1 := seriesByLabel(t, ft, "N=1")
	n10 := seriesByLabel(t, ft, "N=10")
	lastIdx := len(n1.Y) - 1
	if n10.Y[lastIdx] >= n1.Y[lastIdx] {
		t.Fatalf("at ample cache N=10 (%v) should beat N=1 (%v)", n10.Y[lastIdx], n1.Y[lastIdx])
	}
}

func TestAnchorsTable(t *testing.T) {
	out := runSpec(t, "anchors")
	if len(out.Tables) != 1 {
		t.Fatalf("tables = %d", len(out.Tables))
	}
	tb := out.Tables[0]
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every relative error below 10% (asymptotic row is the loosest).
	for _, row := range tb.Rows {
		rel := row[len(row)-1]
		rel = strings.TrimSuffix(strings.TrimPrefix(rel, "+"), "%")
		rel = strings.TrimPrefix(rel, "-")
		v, err := strconv.ParseFloat(rel, 64)
		if err != nil {
			t.Fatalf("bad rel err cell %q", row[len(row)-1])
		}
		if v > 12 {
			t.Fatalf("anchor %q off by %v%%", row[0], v)
		}
	}
}

func TestConcurrencyTable(t *testing.T) {
	out := runSpec(t, "concurrency")
	tb := out.Tables[0]
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{
		"ablation-admission", "ablation-runchoice", "ablation-rotation",
		"ablation-placement", "ablation-scheduler", "ablation-seekmodel",
		"ext-write-traffic", "ext-multipass", "tr-markov", "ext-realtrace",
		"ext-adaptive-n", "ext-k100", "ext-modern-disk",
	} {
		out := runSpec(t, id)
		if len(out.Figures)+len(out.Tables) == 0 {
			t.Fatalf("%s produced nothing", id)
		}
	}
}

func TestCacheGrid(t *testing.T) {
	g := cacheGrid(25, 1200, false)
	if g[0] != 25 {
		t.Fatalf("grid starts at %d, want k", g[0])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing: %v", g)
		}
		if g[i] > 1200 {
			t.Fatalf("grid exceeds max: %v", g)
		}
	}
	if len(cacheGrid(25, 1200, true)) >= len(g) {
		t.Fatal("quick grid not coarser")
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Trials != 5 || o.Seed != 1 {
		t.Fatalf("normalized = %+v", o)
	}
}

// TestAllNormalizesOptions pins the normalize-once rule: a spec from All
// given no trials and no seed renders exactly what it renders at the
// paper's 5 trials from seed 1, for each builder shape.
func TestAllNormalizesOptions(t *testing.T) {
	for _, id := range []string{"3.2a", "ext-modern-disk"} {
		t.Run(id, func(t *testing.T) {
			spec, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]string
			for i, o := range []Options{{Quick: true}, {Quick: true, Trials: 5, Seed: 1}} {
				out, err := spec.Run(o)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = render(t, []Output{out})
			}
			if got[0] != got[1] {
				t.Fatalf("zero options diverged from 5 trials at seed 1: %s", firstDiff(got[0], got[1]))
			}
		})
	}
}
