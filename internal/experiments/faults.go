package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/table"
)

// extDegradedDisk measures what the paper's always-healthy-disk
// assumption hides: how each prefetching strategy degrades when one of
// the D disks fail-slows. Inter-run prefetching couples every decision
// point to all D disks — a synchronized batch waits for the slow arm on
// every fetch — so its curve should steepen fastest, while intra-run
// unsynchronized only pays on the fraction of demand fetches that land
// on the degraded disk.
func extDegradedDisk(o Options) (Output, error) {
	f := &table.Figure{
		ID: "ext-degraded-disk", Title: "Degraded disk: one arm fail-slow (k=25, 5 disks, N=10)",
		XLabel: "slowdown factor of disk 2", YLabel: "total time (seconds)",
	}
	factors := []float64{1, 1.5, 2, 3, 4}
	if o.Quick {
		factors = []float64{1, 2, 4}
	}
	strategies := []struct {
		label       string
		inter, sync bool
	}{
		{"All Disks One Run, synchronized", true, true},
		{"All Disks One Run, unsynchronized", true, false},
		{"Demand Run Only, synchronized", false, true},
		{"Demand Run Only, unsynchronized", false, false},
	}
	mk := func(inter, sync bool, factor float64) core.Config {
		cfg := strategyConfig(inter, 25, 5, 10)
		cfg.Synchronized = sync
		if factor > 1 {
			cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 2, Slowdown: factor}}}
		}
		return cfg
	}
	g := newGrid(o)
	for _, st := range strategies {
		s := f.AddSeries(st.label)
		for _, factor := range factors {
			g.addPoint(s, factor, mk(st.inter, st.sync, factor))
		}
	}

	// Fault accounting at a fixed 2x degradation, plus a flaky-disk row
	// (transient read errors, recovered by re-reads) for the same
	// headline strategy.
	t := &table.Table{
		Title:   "Fault accounting (k=25, D=5, N=10, disk 2 degraded)",
		Columns: []string{"fault", "strategy", "total (s)", "retries", "retry (s)", "slowdown (s)"},
	}
	type row struct {
		fault, label string
		cfg          core.Config
	}
	var rows []row
	for _, st := range strategies[:2] {
		rows = append(rows, row{"fail-slow 2x", st.label, mk(st.inter, st.sync, 2)})
	}
	flaky := mk(true, false, 1)
	flaky.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 2, ReadErrorProb: 0.05}}}
	rows = append(rows, row{"read errors p=0.05", strategies[1].label, flaky})
	for _, r := range rows {
		g.add(r.cfg, func(a core.Aggregate) {
			var ft core.FaultTotals
			for _, res := range a.Results {
				ft.Retries += res.Faults.Retries
				ft.RetryTime += res.Faults.RetryTime
				ft.SlowdownTime += res.Faults.SlowdownTime
			}
			n := float64(len(a.Results))
			t.AddRow(r.fault, r.label,
				fmt.Sprintf("%.2f", a.TotalTime.Mean()),
				fmt.Sprintf("%.1f", float64(ft.Retries)/n),
				fmt.Sprintf("%.2f", ft.RetryTime.Seconds()/n),
				fmt.Sprintf("%.2f", ft.SlowdownTime.Seconds()/n))
		})
	}
	return g.output(Output{Figures: []*table.Figure{f}, Tables: []*table.Table{t}})
}
