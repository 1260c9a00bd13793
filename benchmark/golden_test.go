package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current tree")

// TestGolden checks the merge-paper row digests against the committed
// goldens; with -update it recaptures every golden (figures included,
// which takes a full quick regeneration).
func TestGolden(t *testing.T) {
	e := &env{opts: options{seed: goldenSeed}}
	merge, err := mergeDigests(mergeRows(), e.seedBase())
	if err != nil {
		t.Fatal(err)
	}
	if !*update {
		g, err := loadGolden()
		if err != nil {
			t.Fatal(err)
		}
		if g.Seed != goldenSeed || len(g.Figures) == 0 {
			t.Fatalf("golden.json holds seed %d and %d figure digests", g.Seed, len(g.Figures))
		}
		if diff := diffDigests(g.Merge, merge); diff != "" {
			t.Fatalf("merge row %s differs from its golden", diff)
		}
		return
	}
	specs := experiments.All()
	outs, err := experiments.RunAll(specs, figureOptions(e))
	if err != nil {
		t.Fatal(err)
	}
	g := golden{Seed: goldenSeed, Figures: digestOutputs(specs, outs), Merge: merge}
	if g.AnchorMaxRelErrPct, err = anchorMaxRelErr(specs, outs); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
