package experiments

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/core/coretest"
)

// TestGoldenQuickSet pins the quick figure set at seed 7: one digest per
// rendered figure CSV and table. Any change to what an experiment
// computes shows up as a named diff; a deliberate model change updates
// the testdata line the failure prints.
func TestGoldenQuickSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick figure set")
	}
	specs := All()
	outs, err := RunAll(specs, Options{Trials: 1, Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	g := coretest.LoadGolden(t, "testdata/quick-seed7.golden")
	for i, out := range outs {
		for _, f := range out.Figures {
			var b bytes.Buffer
			if err := f.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			g.Check(t, "fig-"+f.ID, coretest.Digest(b.Bytes()))
		}
		for j, tb := range out.Tables {
			var b bytes.Buffer
			if err := tb.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			g.Check(t, "table-"+specs[i].ID+"-"+strconv.Itoa(j), coretest.Digest(b.Bytes()))
		}
	}
	g.Done(t)
}
