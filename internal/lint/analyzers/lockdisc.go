package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// LockDisc enforces lock discipline in the service and cache layers,
// where a mutex guards in-memory maps but the expensive work — engine
// runs, disk cache file I/O, channel rendezvous — must happen outside
// it. Two layers of checking:
//
//   - Linear held-set tracking per function: a sync.Mutex/RWMutex
//     Lock/RLock adds to the held set, Unlock removes, a deferred
//     Unlock pins it to function exit. While anything is held, channel
//     sends, os.* file I/O, and core engine runs are findings. The
//     walk is branch-local (a Lock inside an if does not leak out),
//     which trades a little soundness for zero false positives on the
//     straight-line Lock/defer-Unlock idiom the repo uses.
//
//   - A derived lock-ordering check over the fact store: every
//     acquisition that happens while another identified lock is held
//     exports an ordering edge on the held lock's field object. An
//     acquisition that inverts an already-exported edge — B then A
//     after some function established A then B — is reported at the
//     second site, across packages, because all passes share one
//     object-identity fact store.
var LockDisc = &lint.Analyzer{
	Name: "lockdisc",
	Doc:  "no engine runs, disk I/O or channel sends under a lock; consistent lock acquisition order",
	Run:  runLockDisc,
}

// lockEdge records "this lock was acquired at pos while the fact's
// owner was held".
type lockEdge struct {
	obj  types.Object
	name string
	pos  token.Position
}

// lockFact is the per-lock ordering summary: the locks acquired while
// this one was held, anywhere in the module so far.
type lockFact struct {
	name  string
	after []lockEdge
}

// heldLock is one entry of the walker's held set.
type heldLock struct {
	key string       // types.ExprString of the receiver, for display + set identity
	obj types.Object // the mutex field/var, nil when the receiver is too dynamic to name
	pos token.Pos
}

func runLockDisc(pass *lint.Pass) error {
	if !concurrencyScoped(pass.Pkg.Path()) {
		return nil
	}
	w := &lockWalker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.stmts(fd.Body.List, nil)
			}
		}
	}
	return nil
}

type lockWalker struct {
	pass *lint.Pass
}

func (w *lockWalker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// stmt threads the held set through one statement. Branch bodies get a
// copy: what a branch locks stays in the branch.
func (w *lockWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if lk, acquire := w.lockOp(s.X); lk != nil {
			if acquire {
				return w.acquire(*lk, held)
			}
			return w.release(*lk, held)
		}
		w.check(s, held)
	case *ast.DeferStmt:
		if lk, acquire := w.lockOp(s.Call); lk != nil && !acquire {
			return held // deferred unlock: held until function exit, by design
		}
		w.check(s.Call, held)
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Cond != nil {
			w.check(s.Cond, held)
		}
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		w.check(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		}
		for _, c := range clauses {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.check(e, held)
				}
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		// A select with a default case never blocks, so its sends are
		// tolerated under a lock; without one, every comm clause can
		// block indefinitely and gets checked.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil && !hasDefault {
				w.check(cc.Comm, held)
			}
			w.stmts(cc.Body, copyHeld(held))
		}
	default:
		w.check(s, held)
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// lockOp recognizes X.Lock/RLock (acquire=true) and X.Unlock/RUnlock
// (acquire=false) on a sync.Mutex or sync.RWMutex, returning the lock's
// identity.
func (w *lockWalker) lockOp(e ast.Expr) (*heldLock, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return nil, false
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false
	}
	lk := heldLock{key: types.ExprString(sel.X), pos: call.Pos()}
	// Identify the mutex object when the receiver is a plain variable or
	// a field selection — that identity is what the ordering facts hang
	// off.
	switch recv := sel.X.(type) {
	case *ast.Ident:
		lk.obj = w.pass.TypesInfo.Uses[recv]
	case *ast.SelectorExpr:
		if s, ok := w.pass.TypesInfo.Selections[recv]; ok && s.Kind() == types.FieldVal {
			lk.obj = s.Obj()
		} else {
			lk.obj = w.pass.TypesInfo.Uses[recv.Sel]
		}
	}
	return &lk, acquire
}

// acquire adds lk to the held set and maintains the ordering facts: an
// edge held→lk is exported, and an existing lk→held edge anywhere in
// the module is an inversion.
func (w *lockWalker) acquire(lk heldLock, held []heldLock) []heldLock {
	for _, h := range held {
		if h.obj == nil || lk.obj == nil || h.obj == lk.obj {
			continue
		}
		// Inversion: someone already established lk-then-h.
		if f, ok := w.pass.ImportObjectFact(lk.obj).(*lockFact); ok {
			for _, e := range f.after {
				if e.obj == h.obj {
					w.pass.Reportf(lk.pos, "acquiring %s while %s is held inverts the lock order established at %s:%d", lk.key, h.key, filebase(e.pos.Filename), e.pos.Line)
				}
			}
		}
		f, _ := w.pass.ImportObjectFact(h.obj).(*lockFact)
		if f == nil {
			f = &lockFact{name: h.key}
		}
		known := false
		for _, e := range f.after {
			if e.obj == lk.obj {
				known = true
			}
		}
		if !known {
			f.after = append(f.after, lockEdge{obj: lk.obj, name: lk.key, pos: w.pass.Fset.Position(lk.pos)})
		}
		w.pass.ExportObjectFact(h.obj, f)
	}
	return append(held, lk)
}

func (w *lockWalker) release(lk heldLock, held []heldLock) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == lk.key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func filebase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// check scans one node for work that must not happen under a lock.
// Function literals are skipped: a closure body runs when it is called,
// not where it is written.
func (w *lockWalker) check(n ast.Node, held []heldLock) {
	if len(held) == 0 || n == nil {
		return
	}
	holder := held[len(held)-1].key
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			w.pass.Reportf(n.Pos(), "channel send while %s is held: a slow receiver stalls every caller of this lock", holder)
		case *ast.CallExpr:
			w.checkCall(n, holder)
		}
		return true
	})
}

// checkCall flags disk I/O (the os package, *os.File methods) and
// engine runs (repro/internal/core Run*) under a lock.
func (w *lockWalker) checkCall(call *ast.CallExpr, holder string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Path() == "os":
		w.pass.Reportf(call.Pos(), "os.%s while %s is held: file I/O under a lock serializes every caller on the disk", sel.Sel.Name, holder)
	case isOSFileMethod(fn):
		w.pass.Reportf(call.Pos(), "file %s while %s is held: file I/O under a lock serializes every caller on the disk", sel.Sel.Name, holder)
	case strings.HasSuffix(fn.Pkg().Path(), "internal/core") && strings.HasPrefix(fn.Name(), "Run"):
		w.pass.Reportf(call.Pos(), "engine run %s.%s while %s is held: a simulation can take seconds, run it outside the lock", fn.Pkg().Name(), fn.Name(), holder)
	}
}

// isOSFileMethod reports whether fn is a method of *os.File.
func isOSFileMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
