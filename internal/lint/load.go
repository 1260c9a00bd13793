package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// A Package is one loaded, parsed and fully type-checked package ready
// for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     *struct {
		Path string
		Dir  string
	}
}

// The expensive parts of loading are shared process-wide: one FileSet,
// one source importer (so the standard library is parsed and
// type-checked once, not once per Load call or per test fixture), one
// memoized `go list` invocation per (dir, patterns), and memoized
// type-checked module packages. `make lint` and the analyzer self-test
// suite each hit the stdlib importer dozens of times; before this cache
// every hit re-type-checked fmt-and-friends from GOROOT source.
var shared struct {
	once    sync.Once
	mu      sync.Mutex
	fset    *token.FileSet
	std     types.Importer
	lists   map[string][]byte     // `go list` stdout by dir+patterns
	checked map[string]*Package   // type-checked module packages by dir+path
	meta    map[string]*listedPkg // listed metadata by dir+path
}

func sharedInit() {
	shared.once.Do(func() {
		// The source importer type-checks stdlib dependencies from GOROOT
		// source; turning cgo off keeps it on the pure-Go variants of net &
		// friends, which avoids invoking the cgo tool entirely.
		ctxt := build.Default
		ctxt.CgoEnabled = false
		build.Default = ctxt
		shared.fset = token.NewFileSet()
		shared.std = importer.ForCompiler(shared.fset, "source", nil)
		shared.lists = make(map[string][]byte)
		shared.checked = make(map[string]*Package)
		shared.meta = make(map[string]*listedPkg)
	})
}

// SharedFset returns the process-wide FileSet every loaded package (and
// linttest fixture) is positioned in.
func SharedFset() *token.FileSet {
	sharedInit()
	return shared.fset
}

// StdImporter returns the process-wide stdlib source importer. Not safe
// for concurrent use; callers serialize through LoadMu.
func StdImporter() types.Importer {
	sharedInit()
	return shared.std
}

// LockLoader serializes access to the shared loader state (the source
// importer caches internally without locking). It returns the unlock.
func LockLoader() func() {
	sharedInit()
	shared.mu.Lock()
	return shared.mu.Unlock
}

// loader resolves and type-checks packages of the current module from
// source, delegating out-of-module imports (the standard library) to
// the shared source importer. Everything works offline: `go list` only
// inspects the local tree because the module has no external
// dependencies.
type loader struct {
	dir string // where go list runs
}

// Load type-checks the packages matching patterns (relative to dir, in
// the usual `go list` pattern syntax) along with their in-module
// dependencies, and returns the packages the patterns named. Results
// are memoized process-wide: a second Load of the same packages is
// effectively free.
func Load(dir string, patterns ...string) ([]*Package, error) {
	defer LockLoader()()
	ld := &loader{dir: dir}
	targets, err := ld.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range targets {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (ld *loader) key(path string) string { return ld.dir + "\x00" + path }

// list runs `go list -deps -json` once per (dir, patterns), caches the
// metadata of every in-module package in the dependency closure, and
// returns the import paths the patterns matched directly.
func (ld *loader) list(patterns []string) ([]string, error) {
	cacheKey := ld.dir + "\x00" + strings.Join(patterns, "\x00")
	out, ok := shared.lists[cacheKey]
	if !ok {
		args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Module,DepOnly"}, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = ld.dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var err error
		out, err = cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
		}
		shared.lists[cacheKey] = out
	}
	var targets []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			listedPkg
			DepOnly bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Module != nil {
			pkg := p.listedPkg
			shared.meta[ld.key(p.ImportPath)] = &pkg
		}
		if !p.DepOnly {
			targets = append(targets, p.ImportPath)
		}
	}
	return targets, nil
}

// check parses and type-checks one in-module package, memoized
// process-wide.
func (ld *loader) check(path string) (*Package, error) {
	if pkg, ok := shared.checked[ld.key(path)]; ok {
		return pkg, nil
	}
	meta, ok := shared.meta[ld.key(path)]
	if !ok {
		return nil, fmt.Errorf("lint: package %s is not in the module dependency closure", path)
	}
	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(shared.fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: (*chainImporter)(ld)}
	tpkg, err := conf.Check(path, shared.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  shared.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	shared.checked[ld.key(path)] = pkg
	return pkg, nil
}

// chainImporter satisfies types.Importer: in-module packages are
// type-checked from source by the loader itself, everything else (the
// standard library) goes to the shared source importer.
type chainImporter loader

func (c *chainImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(c)
	if _, ok := shared.meta[ld.key(path)]; ok {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return shared.std.Import(path)
}
