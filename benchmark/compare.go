package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// verdict is the outcome of comparing one workload × end-to-end metric
// between a parent's runs and a change's runs.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
	regressed  verdict = "regressed"
)

// minRunsPerSide is the fewest runs of a workload each side needs before
// -compare judges its metrics; with fewer the verdict is unresolved.
const minRunsPerSide = 5

// definition is BENCHMARK.json.
type definition struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// judge applies the benchmark's rule. parent[i] and change[i] are the
// i-th runs of each side; runs should alternate sides.
//
//   - improved: the change is better in at least 9 of 10 pairs (ties
//     count for neither) and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound, unless every change run reads
//     better than every parent run (then unchanged);
//   - regressed: the change's median is worse than the parent's by more
//     than bound × the parent's median;
//   - unchanged: otherwise.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) verdict {
	better := func(x, y float64) bool {
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	share := func(x, of float64) float64 {
		if of == 0 {
			return math.Inf(1)
		}
		return x / math.Abs(of)
	}
	worse := share(cm-pm, pm)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		return improved
	case math.Max(share(pq3-pq1, pm), share(cq3-cq1, cm)) > bound:
		if better(minOrMax(change, lowerIsBetter, true), minOrMax(parent, lowerIsBetter, false)) {
			return unchanged
		}
		return unresolved
	case worse > bound:
		return regressed
	default:
		return unchanged
	}
}

// minOrMax returns the worst (worst=true) or best value of xs.
func minOrMax(xs []float64, lowerIsBetter, worst bool) float64 {
	s := sortedCopy(xs)
	if lowerIsBetter == worst {
		return s[len(s)-1]
	}
	return s[0]
}

// loadRuns reads every results*.json under dir, in path order, and
// returns workload → metric → one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); !d.IsDir() && strings.HasPrefix(name, "results") && strings.HasSuffix(name, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	values := make(map[string]map[string][]float64)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range res.Reports {
			if r.Traced {
				continue
			}
			if values[r.Workload] == nil {
				values[r.Workload] = make(map[string][]float64)
			}
			for _, m := range r.Metrics {
				values[r.Workload][m.Name] = append(values[r.Workload][m.Name], m.Value)
			}
		}
	}
	return values, nil
}

// runCompare prints, for every workload × end-to-end metric, each
// side's run count, quartiles and the verdict, and fails if any metric
// regressed or no workload has enough runs on both sides. A workload with
// fewer than minRunsPerSide runs on either side is unresolved.
func runCompare(w io.Writer, defPath, parentDir, changeDir string) error {
	b, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def definition
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-17s %3s %3s %12s %12s %12s %12s %12s %12s  %s\n",
		"workload", "metric", "n_p", "n_c", "parent_q1", "parent_med", "parent_q3", "change_q1", "change_med", "change_q3", "verdict")
	var bad []string
	judged := 0
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			p, c := parent[wl.Name][m.Name], change[wl.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := unresolved
			if len(p) >= minRunsPerSide && len(c) >= minRunsPerSide {
				v = judge(p, c, m.Better == "lower", m.Bound)
				judged++
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-14s %-17s %3d %3d %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %s\n",
				wl.Name, m.Name, len(p), len(c), pq1, pm, pq3, cq1, cm, cq3, v)
			if v == regressed {
				bad = append(bad, wl.Name+"/"+m.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regressed: %s", strings.Join(bad, ", "))
	}
	if judged == 0 {
		return fmt.Errorf("no workload has at least %d runs on both sides", minRunsPerSide)
	}
	return nil
}
