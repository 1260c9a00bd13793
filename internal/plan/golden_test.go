package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core/coretest"
)

// TestGoldenPlans pins both planners on a grid of jobs: already sorted,
// single- and multi-pass, D = 1 and 5, InterRun off and on. Each entry
// digests every Pass field and the float bits of the plan totals, and
// for calibrated plans the simulated time of every pass, so a change to
// a candidate list, a fan-in rule, the tie-break or any float
// expression shows up as a named diff.
func TestGoldenPlans(t *testing.T) {
	g := coretest.LoadGolden(t, "testdata/plans.golden")
	for _, blocks := range []int64{500, 25_000, 60_000} {
		for _, memory := range []int{100, 1000} {
			for _, d := range []int{1, 5} {
				for _, inter := range []bool{false, true} {
					j := job(blocks, memory, d, inter)
					name := fmt.Sprintf("b%d-m%d-d%d-inter=%t", blocks, memory, d, inter)
					p, err := Build(j)
					if err != nil {
						t.Fatalf("%s: Build: %v", name, err)
					}
					g.Check(t, name+"/analytic", planDigest(t, p, false))
					p, err = BuildCalibrated(j, 1)
					if err != nil {
						t.Fatalf("%s: BuildCalibrated: %v", name, err)
					}
					g.Check(t, name+"/calibrated", planDigest(t, p, true))
				}
			}
		}
	}
	g.Done(t)
}

// planDigest renders p as its pass count and the digest of every
// field, with floats as their bits; simulate adds each pass's
// SimulatePass time at seed 1.
func planDigest(t *testing.T, p Plan, simulate bool) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "runs=%d est=%x form=%x\n", p.InitialRuns,
		math.Float64bits(float64(p.Estimated)), math.Float64bits(float64(p.FormationTime)))
	for i, pass := range p.Passes {
		fmt.Fprintf(&sb, "%d %d %d %d %d %d %d %t %x", pass.Index, pass.RunsIn, pass.FanIn,
			pass.Merges, pass.RunsOut, pass.RunBlocksIn, pass.N, pass.InterRun,
			math.Float64bits(float64(pass.Estimated)))
		if simulate {
			simT, _, err := p.SimulatePass(i, 1)
			if err != nil {
				t.Fatalf("SimulatePass(%d): %v", i, err)
			}
			fmt.Fprintf(&sb, " sim=%x", math.Float64bits(float64(simT)))
		}
		sb.WriteByte('\n')
	}
	return fmt.Sprintf("%d %s", len(p.Passes), coretest.Digest([]byte(sb.String())))
}
