package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// goldenSeed is the seed the committed goldens were captured at.
const goldenSeed = 1

// golden is testdata/golden.json: digests of the outputs the current
// tree produces at goldenSeed. TestGolden -update rewrites it.
type golden struct {
	Seed uint64 `json:"seed"`
	// Figures maps every figure CSV and table text of one quick
	// regeneration to its SHA-256.
	Figures map[string]string `json:"figures"`
	// AnchorMaxRelErrPct is the largest |rel err| of the anchors table.
	AnchorMaxRelErrPct float64 `json:"anchor_max_rel_err_pct"`
	// Merge maps every merge-paper row to the SHA-256 of its ResultJSON
	// over mergeDigestTrials seeds.
	Merge map[string]string `json:"merge"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// anchorBound is the largest simulation-vs-closed-form error the anchors
// table may show at any seed. One quick trial agrees with eqs (1)-(5)
// within 11.4% at every seed from 1 to 200, so a larger gap means the
// engine changed behaviour.
const anchorBound = 20.0

// checkFigures checks one regeneration: at the golden seed every
// artifact must match its digest; at any seed the anchors must stay
// within anchorBound.
func checkFigures(e *env, r *report, got map[string]string, specs []experiments.Spec, outs []experiments.Output) {
	anchor, err := anchorMaxRelErr(specs, outs)
	if err != nil {
		r.fail("anchors: %v", err)
	}
	r.note("anchor_max_rel_err_pct", anchor, "pct")
	if anchor > anchorBound {
		r.fail("anchors: max rel err %.1f%% exceeds %.0f%%", anchor, anchorBound)
	}
	if e.opts.seed != goldenSeed {
		return
	}
	g, err := loadGolden()
	if err != nil {
		r.fail("golden: %v", err)
		return
	}
	if anchor != g.AnchorMaxRelErrPct {
		r.fail("anchors: max rel err %v%%, golden %v%%", anchor, g.AnchorMaxRelErrPct)
	}
	for _, name := range sortedKeys(g.Figures) {
		sum, ok := got[name]
		switch {
		case !ok && !e.opts.smoke:
			r.fail("golden: %s was not produced", name)
		case ok && sum != g.Figures[name]:
			r.fail("golden: %s differs", name)
		}
	}
	for name := range got {
		if _, ok := g.Figures[name]; !ok {
			r.fail("golden: %s has no golden", name)
		}
	}
}

// checkMerge compares the merge-paper row digests against the golden
// at the golden seed.
func checkMerge(e *env, r *report, got map[string]string) {
	if e.opts.seed != goldenSeed {
		return
	}
	g, err := loadGolden()
	if err != nil {
		r.fail("golden: %v", err)
		return
	}
	for _, name := range sortedKeys(g.Merge) {
		if got[name] != g.Merge[name] {
			r.fail("golden: merge row %s differs", name)
		}
	}
}

// anchorMaxRelErr parses the "rel err" column of the anchors table
// ("+1.2%") and returns the largest magnitude, in percent.
func anchorMaxRelErr(specs []experiments.Spec, outs []experiments.Output) (float64, error) {
	for i, s := range specs {
		if s.ID != "anchors" {
			continue
		}
		if len(outs[i].Tables) == 0 {
			return 0, fmt.Errorf("no anchors table")
		}
		t := outs[i].Tables[0]
		col := -1
		for j, c := range t.Columns {
			if c == "rel err" {
				col = j
			}
		}
		if col < 0 {
			return 0, fmt.Errorf("anchors table has no rel err column")
		}
		worst := 0.0
		for _, row := range t.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				return 0, fmt.Errorf("rel err cell %q: %w", row[col], err)
			}
			worst = math.Max(worst, math.Abs(v))
		}
		return worst, nil
	}
	return 0, fmt.Errorf("anchors spec not run")
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
