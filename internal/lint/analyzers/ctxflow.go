package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// CtxFlow guards goroutine lifecycles and context plumbing in the
// concurrent packages (internal/service, internal/parallel,
// internal/diskcache — the packages the cluster and real-I/O roadmap
// items will multiply). Three rules:
//
//  1. Every goroutine must have a provable exit path: the spawned
//     body's control-flow graph must reach its exit — a bounded or
//     conditional loop, a range over a closeable channel, or an
//     infinite loop with a reachable return/break (the shape of a
//     ctx.Done() select). A body that can never return is a leak the
//     moment its spawner is called twice.
//  2. A received context.Context must not be stored into a struct
//     field (the context package's own first rule): storing detaches
//     cancellation from the call tree.
//  3. A function that receives a ctx must not conjure a fresh root
//     with context.Background()/TODO() — that drops the caller's
//     deadline and cancellation. The fix is to pass the in-scope
//     parameter; deliberate detachment (the service's singleflight
//     leader) is a reasoned //detlint:allow.
var CtxFlow = &lint.Analyzer{
	Name: "ctxflow",
	Doc:  "goroutines need provable exit paths; contexts must be propagated, not stored or re-rooted",
	Run:  runCtxFlow,
}

// concurrencyScoped reports whether the package is one the concurrency
// analyzers apply to: the repo's concurrent packages, or any
// single-segment path (the linttest fixtures).
func concurrencyScoped(path string) bool {
	if !strings.Contains(path, "/") {
		return true
	}
	for _, seg := range []string{"/service", "/parallel", "/diskcache"} {
		if strings.HasSuffix(path, seg) {
			return true
		}
	}
	return false
}

func runCtxFlow(pass *lint.Pass) error {
	if !concurrencyScoped(pass.Pkg.Path()) {
		return nil
	}
	decls := localFuncDecls(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoroutineExit(pass, n, decls)
			case *ast.AssignStmt:
				checkCtxStored(pass, n)
			case *ast.CompositeLit:
				checkCtxInLiteral(pass, n)
			}
			return true
		})
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxDropped(pass, fd)
			}
		}
	}
	return nil
}

// localFuncDecls indexes the package's function declarations by their
// types.Func, so `go name()` resolves to a body.
func localFuncDecls(pass *lint.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// checkGoroutineExit resolves the spawned body and requires its CFG to
// reach the exit block.
func checkGoroutineExit(pass *lint.Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) {
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				body = fd.Body
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				body = fd.Body
			}
		}
	}
	if body == nil {
		return // external or dynamic target: nothing to prove here
	}
	cfg := lint.NewCFG(body)
	if !cfg.Reaches(cfg.Entry, cfg.Exit) {
		pass.Reportf(g.Pos(), "goroutine has no exit path: every loop spins forever (add a ctx.Done()/closed-channel case that returns, or bound the loop)")
	}
}

// checkCtxStored flags assignments of a context into a struct field.
func checkCtxStored(pass *lint.Pass, n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			continue
		}
		if isContextType(pass.TypesInfo.Types[n.Rhs[i]].Type) {
			pass.Reportf(n.Pos(), "context stored into field %s: contexts flow down call frames, never into structs (pass ctx per call)", sel.Sel.Name)
		}
	}
}

// checkCtxInLiteral flags composite literals that smuggle a context
// into a field (the keyed form of storing it).
func checkCtxInLiteral(pass *lint.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if isContextType(pass.TypesInfo.Types[kv.Value].Type) {
			if key, ok := kv.Key.(*ast.Ident); ok {
				pass.Reportf(kv.Pos(), "context stored into field %s via literal: contexts flow down call frames, never into structs", key.Name)
			}
		}
	}
}

// checkCtxDropped flags context.Background()/TODO() inside a function
// that already receives a context, with a fix substituting the param.
func checkCtxDropped(pass *lint.Pass, fd *ast.FuncDecl) {
	ctxName := ""
	for _, field := range fd.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			for _, name := range field.Names {
				if name.Name != "_" {
					ctxName = name.Name
				}
			}
		}
	}
	if ctxName == "" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName); !ok || pn.Imported().Path() != "context" {
			return true
		}
		pass.Reportf(call.Pos(), "context.%s() discards the received %s: propagate it (or //detlint:allow with the detachment rationale)", sel.Sel.Name, ctxName)
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
