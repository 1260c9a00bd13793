// detlint is the repo's determinism-and-invariant multichecker: a
// static-analysis suite enforcing that simulation results stay a pure
// function of core.Config (the property the paper's validation and the
// simd result cache both rest on). It runs six analyzers — the
// syntactic checks nondet and floatcmp (DESIGN.md §10) and the
// dataflow checks simunits, ctxflow, lockdisc, hotalloc (DESIGN.md
// §15) — over the deterministic packages and the service layer.
//
// Usage:
//
//	detlint [-C dir] [-v] [-list] [packages...]
//
// With no package arguments it checks the default scope: every
// repro/internal/... package. Findings print as
// file:line:col: analyzer: message, and the exit status is 1 when any
// finding survives //detlint:allow suppression.
//
//	-C dir  resolve packages from dir (the module root)
//	-v      report per-analyzer wall time
//	-list   list the analyzers and exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory to resolve packages from (the module root)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	verbose := fs.Bool("v", false, "report per-analyzer wall time")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: detlint [-C dir] [-v] [-list] [packages...]\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nSuppress a finding with //detlint:allow [analyzer] <reason>.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	defaultScope := len(patterns) == 0
	if defaultScope {
		patterns = []string{"repro/internal/..."}
	}

	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	if defaultScope {
		// The linter does not lint itself: its sources necessarily
		// mention the very patterns the analyzers hunt for.
		kept := pkgs[:0]
		for _, p := range pkgs {
			if p.Path != "repro/internal/lint" && !strings.HasPrefix(p.Path, "repro/internal/lint/") {
				kept = append(kept, p)
			}
		}
		pkgs = kept
	}
	diags, timings, err := lint.RunPackagesTimed(pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	if *verbose {
		for _, tm := range timings {
			fmt.Fprintf(stderr, "detlint: %-12s %8.1fms  %d finding(s)\n", tm.Analyzer, float64(tm.Elapsed.Microseconds())/1000, tm.Findings)
		}
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "detlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
