package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSafe checks mutex discipline across the whole module: Lock calls
// that can reach a return (or fall off the function) without a matching
// Unlock, and defer'd unlocks inside loops (which run at function exit,
// not loop exit, serialising every later iteration). Locks copied by
// value are go vet's copylocks check, which runs in the same gate.
//
// The path analysis is deliberately approximate in the low-false-positive
// direction: branch bodies are analysed with a copy of the lock state and
// their effects are not merged back, so conditional lock/unlock pairs
// split across branches are accepted.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "Lock without Unlock on an exit path; deferred unlock inside a loop",
	Run:  runLockSafe,
}

func runLockSafe(p *Pass) {
	for _, f := range p.Files {
		// The statement walk below never descends into FuncLit
		// expressions, so visiting every FuncDecl and FuncLit here
		// analyses each function body exactly once.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockPaths(p, n.Body)
				}
			case *ast.FuncLit:
				checkLockPaths(p, n.Body)
			}
			return true
		})
	}
}

// --- Lock/Unlock pairing --------------------------------------------------

// lockOp classifies a statement as a lock or unlock on a receiver. The
// key is the receiver's printed form ("s.mu"), with "/R" appended for
// the read side of an RWMutex so RLock must pair with RUnlock.
type lockOp struct {
	key  string
	lock bool
	pos  token.Pos
}

// classifyLockCall recognises <expr>.Lock/RLock/Unlock/RUnlock() where
// the method belongs to package sync.
func classifyLockCall(p *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	op := lockOp{key: types.ExprString(sel.X), pos: call.Pos()}
	switch fn.Name() {
	case "Lock":
		op.lock = true
	case "RLock":
		op.lock = true
		op.key += "/R"
	case "Unlock":
	case "RUnlock":
		op.key += "/R"
	default:
		return lockOp{}, false
	}
	return op, true
}

// lockState tracks which keys are held and which have a deferred unlock
// at one point of one path.
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

// displayKey strips the internal read-lock suffix for messages.
func displayKey(key string) string {
	return strings.TrimSuffix(key, "/R")
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k, v := range st.deferred {
		c.deferred[k] = v
	}
	return c
}

// checkLockPaths runs the approximate path simulation over one function
// body.
func checkLockPaths(p *Pass, body *ast.BlockStmt) {
	st := newLockState()
	walkLockStmts(p, body.List, st, false)
	// Falling off the end of the function with a lock held and no
	// deferred unlock: the lock leaks unless every exit was a return
	// (returns report themselves during the walk).
	if !terminates(body.List) {
		for key, pos := range st.held {
			if !st.deferred[key] {
				p.Reportf(pos, "lock %s is not released on the fall-through exit of this function", displayKey(key))
			}
		}
	}
}

// walkLockStmts simulates stmts in order, updating st and reporting
// returns that would leak a held lock. Branch bodies get cloned state;
// their effects are not merged back (see LockSafe doc comment).
func walkLockStmts(p *Pass, stmts []ast.Stmt, st *lockState, inLoop bool) {
	for _, s := range stmts {
		walkLockStmt(p, s, st, inLoop)
	}
}

func walkLockStmt(p *Pass, s ast.Stmt, st *lockState, inLoop bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, ok := classifyLockCall(p, call); ok {
				if op.lock {
					st.held[op.key] = op.pos
				} else {
					delete(st.held, op.key)
				}
			}
		}
	case *ast.DeferStmt:
		if op, ok := classifyLockCall(p, s.Call); ok && !op.lock {
			if inLoop {
				p.Reportf(s.Pos(), "deferred unlock of %s inside a loop runs at function exit, not loop exit; unlock explicitly or hoist the loop body into a function", displayKey(op.key))
			}
			st.deferred[op.key] = true
		}
	case *ast.ReturnStmt:
		for key, pos := range st.held {
			if !st.deferred[key] {
				p.Reportf(s.Pos(), "return while lock %s is held (acquired at %s) with no unlock on this path", displayKey(key), p.Fset.Position(pos))
			}
		}
	case *ast.BlockStmt:
		walkLockStmts(p, s.List, st, inLoop)
	case *ast.LabeledStmt:
		walkLockStmt(p, s.Stmt, st, inLoop)
	case *ast.IfStmt:
		walkLockStmts(p, s.Body.List, st.clone(), inLoop)
		if s.Else != nil {
			walkLockStmt(p, s.Else, st.clone(), inLoop)
		}
	case *ast.ForStmt:
		walkLockStmts(p, s.Body.List, st.clone(), true)
	case *ast.RangeStmt:
		walkLockStmts(p, s.Body.List, st.clone(), true)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(p, cc.Body, st.clone(), inLoop)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(p, cc.Body, st.clone(), inLoop)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkLockStmts(p, cc.Body, st.clone(), inLoop)
			}
		}
	}
}

// terminates reports whether the statement list cannot fall through:
// its last statement is a return or an unconditional control transfer.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return terminates(last.List)
	case *ast.IfStmt:
		if last.Else == nil {
			return false
		}
		elseTerm := false
		switch e := last.Else.(type) {
		case *ast.BlockStmt:
			elseTerm = terminates(e.List)
		case *ast.IfStmt:
			elseTerm = terminates([]ast.Stmt{e})
		}
		return terminates(last.Body.List) && elseTerm
	}
	return false
}
