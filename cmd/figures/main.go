// Command figures regenerates the paper's evaluation figures and the
// validation tables. Each experiment writes an aligned text rendering
// (plus an ASCII chart for figures) to stdout and, with -csv, one CSV
// file per figure into the output directory.
//
// Usage:
//
//	figures                  # run everything at paper fidelity (5 trials)
//	figures -fig 3.2a        # one experiment
//	figures -quick           # coarse grids, 1 trial (fast smoke run)
//	figures -csv -out ./out  # also write CSV files
//	figures -list            # list experiment ids
//	figures -parallel=false  # serial reference mode (identical output)
//
// By default every layer fans out on the parallel sweep executor:
// independent experiment specs run concurrently, and each spec's
// simulation points × trials saturate GOMAXPROCS workers. Results are
// collected by index, so stdout, CSV and SVG artifacts are byte-identical
// to -parallel=false (only the wall-clock timings differ).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/table"
)

func main() {
	var (
		fig    = flag.String("fig", "", "experiment id to run (default: all)")
		trials = flag.Int("trials", 5, "independent trials per point")
		seed   = flag.Uint64("seed", 1, "base random seed")
		quick  = flag.Bool("quick", false, "coarse grids and a single trial")
		csv    = flag.Bool("csv", false, "write CSV files for figures")
		svg    = flag.Bool("svg", false, "write SVG plots for figures")
		out    = flag.String("out", "figures-out", "CSV output directory")
		chart  = flag.Bool("chart", true, "render ASCII charts for figures")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		verify = flag.Bool("verify", false, "compare regenerated figures against reference CSVs in -out (regression check)")
		par    = flag.Bool("parallel", true, "fan specs and sweep points out across GOMAXPROCS workers (output is byte-identical either way)")
	)
	flag.Parse()

	if *list {
		for _, s := range experiments.All() {
			fmt.Printf("%-20s %s\n", s.ID, s.Title)
		}
		return
	}

	opts := experiments.Options{Trials: *trials, Seed: *seed, Quick: *quick}
	if *quick {
		opts.Trials = 1
	}
	if !*par {
		opts.Workers = 1
	}

	specs := experiments.All()
	if *fig != "" {
		spec, err := experiments.Find(*fig)
		if err != nil {
			fatal(err)
		}
		specs = []experiments.Spec{spec}
	}

	if *csv || *svg {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	// Every spec runs first, on the shared executor, and is rendered
	// afterwards strictly in spec order. Each Run is wrapped to time it
	// and to name the spec in its error.
	took := make([]time.Duration, len(specs))
	for i := range specs {
		id, run := specs[i].ID, specs[i].Run
		specs[i].Run = func(o experiments.Options) (experiments.Output, error) {
			start := time.Now()
			out, err := run(o)
			took[i] = time.Since(start)
			if err != nil {
				return out, fmt.Errorf("%s: %w", id, err)
			}
			return out, nil
		}
	}
	outputs, err := experiments.RunAll(specs, opts)
	if err != nil {
		fatal(err)
	}

	failures := 0
	var svgFiles []string
	for i, spec := range specs {
		fmt.Printf("== %s: %s\n", spec.ID, spec.Title)
		output := outputs[i]
		for _, f := range output.Figures {
			if *verify {
				name := filepath.Join(*out, "fig-"+sanitize(f.ID)+".csv")
				switch err := verifyCSV(name, f); {
				case err == nil:
					fmt.Printf("  verify %s: OK\n", f.ID)
				case os.IsNotExist(err):
					failures++
					fmt.Printf("  verify %s: MISSING reference %s\n", f.ID, name)
				default:
					failures++
					fmt.Printf("  verify %s: MISMATCH: %v\n", f.ID, err)
				}
				continue
			}
			if err := f.WriteText(os.Stdout); err != nil {
				fatal(err)
			}
			if *chart {
				if err := f.WriteASCIIChart(os.Stdout, 72, 18); err != nil {
					fatal(err)
				}
			}
			if *csv {
				name := filepath.Join(*out, "fig-"+sanitize(f.ID)+".csv")
				if err := writeCSV(name, f); err != nil {
					fatal(err)
				}
				fmt.Printf("  wrote %s\n", name)
			}
			if *svg {
				name := filepath.Join(*out, "fig-"+sanitize(f.ID)+".svg")
				if err := writeSVG(name, f); err != nil {
					fatal(err)
				}
				svgFiles = append(svgFiles, filepath.Base(name))
				fmt.Printf("  wrote %s\n", name)
			}
		}
		if !*verify {
			for _, t := range output.Tables {
				if err := t.WriteText(os.Stdout); err != nil {
					fatal(err)
				}
			}
		}
		fmt.Printf("-- %s done in %v\n\n", spec.ID, took[i].Round(time.Millisecond))
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d figure(s) missing or diverged from their references", failures))
	}
	if *svg && len(svgFiles) > 0 {
		name := filepath.Join(*out, "index.html")
		if err := writeGallery(name, svgFiles); err != nil {
			fatal(err)
		}
		fmt.Printf("gallery: %s\n", name)
	}
}

// writeGallery emits a minimal HTML page embedding every SVG plot.
func writeGallery(name string, files []string) error {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">")
	sb.WriteString("<title>mergesim figures</title></head>\n<body>\n")
	sb.WriteString("<h1>Prefetching with Multiple Disks for External Mergesort — regenerated figures</h1>\n")
	for _, f := range files {
		fmt.Fprintf(&sb, "<p><img src=%q alt=%q></p>\n", f, f)
	}
	sb.WriteString("</body></html>\n")
	return os.WriteFile(name, []byte(sb.String()), 0o644)
}

// verifyCSV regenerates f's CSV in memory and compares it cell by cell
// against the reference file: headers must match exactly, numeric cells
// within a small relative tolerance (the simulation is deterministic,
// so anything beyond float formatting indicates a behavioural change).
func verifyCSV(refPath string, f *table.Figure) error {
	ref, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		return err
	}
	refLines := strings.Split(strings.TrimSpace(string(ref)), "\n")
	gotLines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(refLines) != len(gotLines) {
		return fmt.Errorf("row count %d != reference %d", len(gotLines), len(refLines))
	}
	for i := range refLines {
		refCells := strings.Split(refLines[i], ",")
		gotCells := strings.Split(gotLines[i], ",")
		if len(refCells) != len(gotCells) {
			return fmt.Errorf("row %d: column count differs", i)
		}
		for j := range refCells {
			if refCells[j] == gotCells[j] {
				continue
			}
			rv, rerr := strconv.ParseFloat(refCells[j], 64)
			gv, gerr := strconv.ParseFloat(gotCells[j], 64)
			if rerr != nil || gerr != nil {
				return fmt.Errorf("row %d col %d: %q != reference %q", i, j, gotCells[j], refCells[j])
			}
			if math.Abs(gv-rv) > 1e-6*(1+math.Abs(rv)) {
				return fmt.Errorf("row %d col %d: %v != reference %v", i, j, gv, rv)
			}
		}
	}
	return nil
}

func writeSVG(name string, f *table.Figure) error {
	file, err := os.Create(name)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteSVG(file, 720, 460); err != nil {
		return err
	}
	return file.Close()
}

func writeCSV(name string, f *table.Figure) error {
	file, err := os.Create(name)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteCSV(file); err != nil {
		return err
	}
	return file.Close()
}

func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '-'
		}
	}, id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
