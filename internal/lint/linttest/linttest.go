// Package linttest runs detlint analyzers over fixture packages in
// testdata directories and checks their findings against `// want`
// comments, in the style of x/tools' analysistest: every diagnostic
// must be expected, and every expectation must be matched.
//
// Fixture packages live under testdata/src/<name>/ (the go tool ignores
// testdata directories, so intentional violations never break the
// build) and may import only the standard library. A line expecting a
// finding carries a trailing comment:
//
//	t := time.Now() // want `wall-clock`
//
// where the backquoted text is a regular expression matched against the
// diagnostic message. Multiple `// want` comments on one line expect
// multiple findings. //detlint:allow directives work in fixtures too,
// which is how the escape hatch itself is tested.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

var wantRx = regexp.MustCompile("// want `([^`]*)`")

// Run loads the fixture package at dir, applies the analyzers, and
// reports every mismatch between findings and `// want` expectations.
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunPackages([]*lint.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	type expectation struct {
		file    string
		line    int
		pattern *regexp.Regexp
		matched bool
	}
	var wants []*expectation
	for _, path := range fixtureFiles(t, dir) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(src), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(lineText, -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, pattern: rx})
			}
		}
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// fixtureFiles lists the fixture's Go sources (tests included — `want`
// comments may appear there too), sorted for determinism.
func fixtureFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// loadFixture parses and type-checks every non-test Go file in dir as
// one package. Imports resolve against the standard library only,
// through the process-wide shared importer so the whole fixture suite
// type-checks the stdlib once.
func loadFixture(dir string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	defer lint.LockLoader()()
	fset := lint.SharedFset()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: lint.StdImporter()}
	tpkg, err := conf.Check(filepath.Base(dir), fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Package{
		Path:  filepath.Base(dir),
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
