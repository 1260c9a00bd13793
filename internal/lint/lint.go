// Package lint is a small, self-contained static-analysis framework in
// the shape of golang.org/x/tools/go/analysis, built only on the
// standard library's go/ast and go/types (the container that grows this
// repo has no module proxy, so x/tools itself is unavailable).
//
// It exists to machine-check the repo's determinism invariants: the
// paper validation depends on exactly repeatable simulation runs. The
// concrete analyzers live in internal/lint/analyzers; cmd/detlint is
// the multichecker front-end wired into `make lint` and CI.
//
// Since detlint v2 the framework also carries a lightweight dataflow
// layer: an intra-procedural CFG builder (cfg.go) and a cross-package
// fact store for per-function summaries (facts.go).
//
// A finding can be suppressed at its site with
//
//	//detlint:allow <reason>           — suppress every analyzer here
//	//detlint:allow <analyzer> <reason> — suppress one analyzer here
//
// placed either at the end of the offending line or alone on the line
// directly above it. The reason is mandatory: a bare directive is
// itself reported, so every exemption carries its justification in the
// source. Two more directives feed the v2 analyzers: //detlint:unit
// tags a named type or struct field with its simulated dimension, and
// //detlint:hotpath marks a function as a zero-allocation call-graph
// root (see the simunits and hotalloc analyzers).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// PackageOrder selects the order an analyzer visits packages, which is
// the direction its facts flow.
type PackageOrder int

const (
	// DepsFirst visits dependencies before dependents: a pass sees the
	// facts of everything it imports (how simunits learns the return
	// units of core helpers before analyzing their callers).
	DepsFirst PackageOrder = iota
	// DependentsFirst visits dependents before dependencies: a pass
	// sees which of its functions downstream packages reach (how
	// hotalloc roots the sim calendar from core's kernel dispatch).
	DependentsFirst
)

// An Analyzer describes one invariant check. It mirrors
// x/tools/go/analysis.Analyzer closely enough that the analyzers could
// be ported to the real framework if the dependency ever becomes
// available.
type Analyzer struct {
	// Name identifies the analyzer in output and in scoped
	// //detlint:allow directives. Lowercase, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer guards.
	Doc string

	// Order selects the package-visit order (the fact-flow direction).
	// The zero value, DepsFirst, is right for analyzers that summarize
	// callees for callers.
	Order PackageOrder

	// Run inspects one package and reports findings through
	// pass.Report. Returning an error aborts the whole run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one finding. The runner applies //detlint:allow
	// suppression afterwards, so analyzers always report unconditionally.
	Report func(Diagnostic)

	facts *Facts
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf is a convenience for analyzers: position + formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact associates fact with obj for this analyzer; passes
// over packages visited later in the analyzer's order can import it.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.facts.set(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact returns the fact a previous pass of the same
// analyzer exported for obj, or nil.
func (p *Pass) ImportObjectFact(obj types.Object) any {
	return p.facts.get(p.Analyzer.Name, obj)
}

// allowDirective is one parsed //detlint:allow comment.
type allowDirective struct {
	pos      token.Position
	analyzer string // "" = all analyzers
	reason   string
}

const allowPrefix = "//detlint:allow"

var directiveRx = regexp.MustCompile(`^//detlint:(\S+)`)

// directiveVerbs are the comment directives the framework understands.
// allow is handled here; unit and hotpath are data for the simunits and
// hotalloc analyzers, which parse them at their attachment sites.
var directiveVerbs = map[string]bool{"allow": true, "unit": true, "hotpath": true}

// wordRx matches a bare lowercase identifier — the shape of an analyzer
// name, used to catch scoped-allow typos.
var wordRx = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// parseAllows extracts the allow directives of a file and reports
// malformed ones (unknown verbs, missing reasons, misspelled analyzer
// scopes) as diagnostics so a broken escape hatch can never silently
// suppress nothing.
func parseAllows(fset *token.FileSet, file *ast.File, known map[string]bool, report func(Diagnostic)) []allowDirective {
	var out []allowDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := directiveRx.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			if verb := m[1]; verb != "allow" {
				if !directiveVerbs[verb] {
					report(Diagnostic{Pos: pos, Analyzer: "detlint", Message: fmt.Sprintf("unknown directive //detlint:%s (the directives are allow, unit and hotpath)", verb)})
				}
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			dir := allowDirective{pos: pos}
			if first, reason, _ := strings.Cut(rest, " "); known[first] {
				dir.analyzer = first
				dir.reason = strings.TrimSpace(reason)
			} else {
				// A near-miss of an analyzer name is a typo, not a
				// reason: "//detlint:allow nondett ..." must error, or
				// the misspelled scope would silently widen to every
				// analyzer.
				if name := nearAnalyzer(first, known); name != "" {
					report(Diagnostic{Pos: pos, Analyzer: "detlint", Message: fmt.Sprintf("//detlint:allow %s: unknown analyzer (did you mean %q?)", first, name)})
					continue
				}
				dir.reason = rest
			}
			if dir.reason == "" {
				report(Diagnostic{Pos: pos, Analyzer: "detlint", Message: "//detlint:allow needs a reason: //detlint:allow [analyzer] <why this is sound>"})
				continue
			}
			out = append(out, dir)
		}
	}
	return out
}

// nearAnalyzer returns the known analyzer name within edit distance 2
// of word (a bare identifier), or "". Prose reasons start with ordinary
// words nowhere near an analyzer name, so they pass through.
func nearAnalyzer(word string, known map[string]bool) string {
	if !wordRx.MatchString(word) {
		return ""
	}
	best, bestDist := "", 3
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if d := editDistance(word, name); d < bestDist {
			best, bestDist = name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance, for typo detection only
// (inputs are short analyzer names).
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// generatedRx matches the conventional marker line of machine-written
// Go source (https://go.dev/s/generatedcode).
var generatedRx = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGenerated reports whether file carries the generated-code marker
// before its package clause. Findings in generated files are dropped
// wholesale: the fix belongs in the generator, and a human cannot
// meaningfully //detlint:allow output they must not edit.
func isGenerated(file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.Pos() >= file.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRx.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// suppressed reports whether d is covered by an allow directive: same
// file, same line or the line directly above, matching analyzer scope.
func suppressed(d Diagnostic, allows []allowDirective) bool {
	for _, a := range allows {
		if a.pos.Filename != d.Pos.Filename {
			continue
		}
		if a.pos.Line != d.Pos.Line && a.pos.Line != d.Pos.Line-1 {
			continue
		}
		if a.analyzer == "" || a.analyzer == d.Analyzer {
			return true
		}
	}
	return false
}

// A Timing records one analyzer's aggregate wall time over every
// package it visited, for `detlint -v`.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
	Findings int
}

// RunPackages applies every analyzer to every package and returns the
// surviving findings sorted by position — the linter's own output must
// be deterministic. Directive diagnostics (malformed //detlint:allow)
// are included.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunPackagesTimed(pkgs, analyzers)
	return diags, err
}

// RunPackagesTimed is RunPackages reporting per-analyzer wall time.
// Analyzers run analyzer-major so each one sees packages in its fact
// order: DepsFirst analyzers walk imports before importers,
// DependentsFirst the reverse.
func RunPackagesTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	// Allow directives and directive diagnostics are per-package, not
	// per-analyzer: parse once. Generated files are exempt end to end —
	// no directive diagnostics, no findings.
	allowsByPkg := make(map[*Package][]allowDirective, len(pkgs))
	genByPkg := make(map[*Package]map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		gen := make(map[string]bool)
		var allows []allowDirective
		for _, f := range pkg.Files {
			if isGenerated(f) {
				gen[pkg.Fset.Position(f.Pos()).Filename] = true
				continue
			}
			allows = append(allows, parseAllows(pkg.Fset, f, known, collect)...)
		}
		allowsByPkg[pkg] = allows
		genByPkg[pkg] = gen
	}

	depsFirst := topoOrder(pkgs)
	dependentsFirst := make([]*Package, len(depsFirst))
	for i, p := range depsFirst {
		dependentsFirst[len(depsFirst)-1-i] = p
	}

	facts := NewFacts()
	var timings []Timing
	for _, a := range analyzers {
		order := depsFirst
		if a.Order == DependentsFirst {
			order = dependentsFirst
		}
		start := time.Now()
		found := 0
		for _, pkg := range order {
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d Diagnostic) { raw = append(raw, d) },
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range raw {
				if !suppressed(d, allowsByPkg[pkg]) && !genByPkg[pkg][d.Pos.Filename] {
					diags = append(diags, d)
					found++
				}
			}
		}
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start), Findings: found})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, timings, nil
}

// topoOrder sorts pkgs dependencies-first. Only edges between the
// loaded packages matter; ties and roots keep a stable path order so
// the fact flow (and therefore the findings) is deterministic.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	sorted := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return
		}
		state[p.Path] = 1
		var paths []string
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				paths = append(paths, imp.Path())
			}
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		sorted = append(sorted, p)
	}
	roots := make([]*Package, len(pkgs))
	copy(roots, pkgs)
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })
	for _, p := range roots {
		visit(p)
	}
	return sorted
}
