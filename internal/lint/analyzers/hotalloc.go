package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// HotAlloc walks the static call graph from //detlint:hotpath roots —
// the calendar dispatch loop and the DiskRequest issue path, whose
// zero-allocation property CI enforces with a benchmark gate — and
// flags allocating constructs in every function reachable from one:
// closures, fmt calls, append growth, make/new, composite-literal
// addresses, and concrete values converted to interfaces at call
// boundaries. The benchmark gate proves the property for the one path
// the benchmark drives; this analyzer names the allocation site for
// any path, before a run ever reaches the profiler.
//
// The analyzer visits dependents before dependencies: a package that
// calls into a callee it imports exports a hot-reachability fact on
// the callee's object, and the callee's own package picks it up when
// its pass runs later. Dynamic calls (function values, interface
// methods) end the walk — the engine's handler tables are covered by
// tagging the handlers themselves.
var HotAlloc = &lint.Analyzer{
	Name:  "hotalloc",
	Doc:   "no allocating constructs reachable from //detlint:hotpath roots",
	Order: lint.DependentsFirst,
	Run:   runHotAlloc,
}

// hotFact marks a function as reachable from a hot-path root; Root
// names the root for the report.
type hotFact struct {
	Root string
}

const hotpathDirective = "//detlint:hotpath"

func runHotAlloc(pass *lint.Pass) error {
	decls := localFuncDecls(pass)

	// Seed the worklist: locally tagged roots plus functions a
	// dependent package already marked hot.
	hot := make(map[*types.Func]string)
	var work []*types.Func
	mark := func(fn *types.Func, root string) {
		if _, seen := hot[fn]; seen {
			return
		}
		hot[fn] = root
		work = append(work, fn)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasHotpathTag(fd) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				mark(fn, fn.Name())
			}
		}
	}
	for fn := range decls {
		if f, ok := pass.ImportObjectFact(fn).(*hotFact); ok {
			mark(fn, f.Root)
		}
	}
	if len(hot) == 0 {
		return nil
	}

	// Propagate along static call edges. Callees without a local body
	// get a fact export so their own package's pass roots from them.
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		fd := decls[fn]
		if fd == nil {
			if fn.Pkg() != pass.Pkg {
				pass.ExportObjectFact(fn, &hotFact{Root: hot[fn]})
			}
			continue
		}
		root := hot[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false // a spawned goroutine is off the hot path
			case *ast.FuncLit:
				return false // runs when called; the closure itself is flagged below
			case *ast.CallExpr:
				if callee := staticCallee(pass, n); callee != nil && inModule(callee) {
					mark(callee, root)
				}
			}
			return true
		})
	}

	// Report allocating constructs in every hot function with a local
	// body.
	for fn, root := range hot {
		if fd := decls[fn]; fd != nil {
			checkHotBody(pass, fd, root)
		}
	}
	return nil
}

func hasHotpathTag(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// staticCallee resolves a call to a declared function or method, or nil
// for builtins, conversions and dynamic calls.
func staticCallee(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Skip interface-method calls: dynamic dispatch ends the walk.
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	if fn != nil {
		// A call into a generic function or a method of a generic type
		// uses an instantiation; its body is the generic declaration's.
		fn = fn.Origin()
	}
	return fn
}

// inModule keeps the walk inside repro: stdlib callees are taken as
// vetted (and unannotatable anyway). Fixture packages have single-
// segment paths and count as in-module.
func inModule(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return strings.HasPrefix(path, "repro/") || !strings.Contains(path, "/")
}

// checkHotBody reports every allocating construct in one hot function.
func checkHotBody(pass *lint.Pass, fd *ast.FuncDecl, root string) {
	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(), "%s in %s, which is on the hot path rooted at %s: the zero-alloc gate will catch this under load", what, fd.Name.Name, root)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			report(n, "closure allocation")
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n, "heap-allocated composite literal")
					return false
				}
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				report(n, "slice/map literal allocation")
				return false
			}
		case *ast.CallExpr:
			// A panic ends the hot path: whatever its arguments
			// allocate, no dispatch follows it.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
			checkHotCall(pass, n, report)
		}
		return true
	})
}

func checkHotCall(pass *lint.Pass, call *ast.CallExpr, report func(ast.Node, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call, "append (may grow its backing array)")
			case "make", "new":
				report(call, b.Name()+" allocation")
			}
			return
		}
	}
	fn := staticCallee(pass, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call, "fmt."+fn.Name()+" (interface boxing and formatting state)")
		return
	}
	// Concrete non-pointer values passed to interface parameters box.
	// The call's own signature has a generic callee's type arguments
	// in place of its type parameters, which are not interfaces.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if pass.TypesInfo.Types[arg].IsNil() {
			continue
		}
		report(arg, "interface conversion of a concrete value (boxes on the heap)")
	}
}
