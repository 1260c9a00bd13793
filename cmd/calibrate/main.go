// Command calibrate reproduces the OCR parameter reconstruction of
// DESIGN.md §1: the paper's text is digit-garbled, so the disk
// constants (S, R, T) were recovered by fitting the paper's own
// closed-form equations to the anchor values of its prose. This tool
// performs that fit as a grid search over the eq 1–5 rows of
// analysis.Anchors and prints the residuals of the winning parameter
// set.
//
// The targets are the reconstruction's own totals, rounded as quoted,
// so small residuals show that the committed constants are consistent
// with them. The evidence from the prose is the glyph column: the
// digits of each value that survive OCR, x for a lost one.
//
// Usage:
//
//	calibrate              # search the default grid
//	calibrate -fine        # refine around the committed constants
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/analysis"
	"repro/internal/disk"
	"repro/internal/sim"
)

// params returns the paper's disk with the candidate S, R and T (ms).
func params(s, r, t float64) disk.Params {
	p := disk.PaperParams()
	p.SeekPerCylinder = sim.Ms(s)
	p.AvgRotational = sim.Ms(r)
	p.TransferPerBlock = sim.Ms(t)
	return p
}

// loss returns the sum of squared relative errors over the anchors.
func loss(p disk.Params, anchors []analysis.Anchor) float64 {
	sum := 0.0
	for _, a := range anchors {
		rel := (analysis.Predict(p, a.Shape).Seconds() - a.Seconds) / a.Seconds
		sum += rel * rel
	}
	return sum
}

func main() {
	fine := flag.Bool("fine", false, "refine around the committed constants instead of the broad grid")
	flag.Parse()

	// The fit uses the rows of equations (1)–(5); the urn-game row is
	// an asymptote for large N, not an equation at its own N.
	var anchors []analysis.Anchor
	for _, a := range analysis.Anchors {
		if a.Shape.Form() != analysis.Eq4Urn {
			anchors = append(anchors, a)
		}
	}

	// Candidate grids. R is tied to plausible spindle speeds (half a
	// revolution at 7200/5400/3600/2400 RPM); T to era transfer rates;
	// S spans linear coefficients from very fast to sluggish arms.
	sGrid := frange(0.005, 0.06, 0.0025)
	rGrid := []float64{4.17, 5.55, 8.33, 12.5}
	tGrid := frange(1.0, 5.0, 0.05)
	if *fine {
		sGrid = frange(0.015, 0.025, 0.0005)
		rGrid = frange(8.0, 8.7, 0.01)
		tGrid = frange(2.5, 2.8, 0.005)
	}

	bestS, bestR, bestT := 0.0, 0.0, 0.0
	best := math.Inf(1)
	for _, s := range sGrid {
		for _, r := range rGrid {
			for _, t := range tGrid {
				if l := loss(params(s, r, t), anchors); l < best {
					best, bestS, bestR, bestT = l, s, r, t
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		fmt.Fprintln(os.Stderr, "calibrate: empty grid")
		os.Exit(1)
	}

	committed := disk.PaperParams()
	fmt.Printf("best fit: S = %.4f ms/cyl, R = %.2f ms, T = %.3f ms  (loss %.3g)\n",
		bestS, bestR, bestT, best)
	fmt.Printf("committed: S = %.4f ms/cyl, R = %.2f ms, T = %.3f ms\n\n",
		float64(committed.SeekPerCylinder), float64(committed.AvgRotational), float64(committed.TransferPerBlock))
	fmt.Printf("%-26s %-5s %-6s %8s %8s %8s\n", "anchor", "form", "prose", "target", "fit", "rel err")
	fit := params(bestS, bestR, bestT)
	for _, a := range anchors {
		got := analysis.Predict(fit, a.Shape).Seconds()
		fmt.Printf("%-26s %-5s %-6s %8g %8.1f %+7.1f%%\n",
			a.Case, a.Shape.Form(), a.Glyphs, a.Seconds, got, 100*(got-a.Seconds)/a.Seconds)
	}
}

// frange returns lo, lo+step, ... up to and including hi (within eps).
func frange(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out
}
