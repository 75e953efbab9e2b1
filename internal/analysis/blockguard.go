package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"hvac/internal/analysis/callgraph"
	"hvac/internal/analysis/cfg"
	"hvac/internal/analysis/valueflow"
)

// BlockGuard proves that the hot loops which keep the cluster live —
// the transport package plus the core server/client files — never
// block forever on a dead peer. Two obligations:
//
//   - Every blocking use of a net.Conn (a Read/Write on it, or passing
//     it to a function that may drive I/O on it) must be preceded on
//     every CFG path by a Set*Deadline call or by a branch on a
//     time.Duration knob (the configured-timeout idiom, where a zero
//     knob is a deliberate opt-out).
//   - Every bare channel receive (one not in a multi-case select and
//     not inherently timed via time.After or a Timer/Ticker C) must
//     offer an alternative: a stop channel, a timeout case, or a
//     documented external unblocker.
//
// A conn received as a parameter transfers the obligation to the
// callers: the call passing the conn is itself a blocking site there.
// Sites with an external unblocker carry a line annotation
//
//	//hvac:blockguard <reason>
//
// on the site's line or the line above.
var BlockGuard = &Analyzer{
	Name:      "blockguard",
	Doc:       "blocking conn I/O and bare receives on live paths have a deadline, timeout knob, or stop alternative",
	RunModule: runBlockGuard,
}

const blockguardMarker = "//hvac:blockguard"

type bgEventKind int

const (
	bgGuard   bgEventKind = iota // a Set*Deadline call or Duration-knob branch
	bgConnIO                     // direct Read/Write on a conn
	bgConnArg                    // conn handed to a function that may drive I/O
	bgRecv                       // bare channel receive
	bgRange                      // range over a channel
)

// bgEvent is one guard trigger or blocking site, in source order
// within its CFG node.
type bgEvent struct {
	kind bgEventKind
	pos  token.Pos
	what string   // printable site description
	conn ast.Expr // the conn value for bgConnIO/bgConnArg
}

type blockGuard struct {
	pass *ModulePass
	conn *types.Interface // net.Conn
	// annotated maps file name -> lines carrying //hvac:blockguard.
	annotated map[string]map[int]bool
}

func runBlockGuard(p *ModulePass) {
	bg := &blockGuard{pass: p, annotated: map[string]map[int]bool{}}
	if netPkg := p.FindPackage("net"); netPkg != nil {
		if tn, ok := netPkg.Scope().Lookup("Conn").(*types.TypeName); ok {
			bg.conn, _ = tn.Type().Underlying().(*types.Interface)
		}
	}
	bg.collectAnnotations()
	for _, n := range p.Graph.Nodes() {
		if n.Body == nil || !bg.inScope(n) {
			continue
		}
		bg.checkNode(n)
	}
}

// inScope limits the analyzer to the code whose loops keep the
// cluster live: all of internal/transport, and the server/client
// files of internal/core (the simulator harness may block at will).
func (bg *blockGuard) inScope(n *callgraph.Node) bool {
	path := n.Pkg.Path
	if strings.HasSuffix(path, "internal/transport") {
		return true
	}
	if !strings.HasSuffix(path, "internal/core") {
		return false
	}
	base := filepath.Base(bg.pass.Fset.Position(n.Pos).Filename)
	return strings.HasPrefix(base, "server") || strings.HasPrefix(base, "client")
}

// collectAnnotations indexes //hvac:blockguard lines per file and
// reports annotations with no reason.
func (bg *blockGuard) collectAnnotations() {
	for _, pkg := range bg.pass.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, blockguardMarker) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, blockguardMarker)
					if strings.TrimSpace(rest) == "" || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
						bg.pass.Reportf(c.Pos(), "malformed blockguard annotation: want //hvac:blockguard <reason>")
						continue
					}
					pos := bg.pass.Fset.Position(c.Pos())
					if bg.annotated[pos.Filename] == nil {
						bg.annotated[pos.Filename] = map[int]bool{}
					}
					bg.annotated[pos.Filename][pos.Line] = true
				}
			}
		}
	}
}

// covered reports whether pos carries a blockguard annotation on its
// line or the line above.
func (bg *blockGuard) covered(pos token.Pos) bool {
	p := bg.pass.Fset.Position(pos)
	lines := bg.annotated[p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

// implementsConn reports whether a value of type t is a net.Conn.
func (bg *blockGuard) implementsConn(t types.Type) bool {
	if bg.conn == nil || t == nil {
		return false
	}
	return types.Implements(t, bg.conn) || types.Implements(types.NewPointer(t), bg.conn)
}

// exemptConnCallees never drive blocking I/O on a conn argument or
// receiver.
var exemptConnCallees = map[string]bool{
	"Close": true, "LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"SetNoDelay": true, "SetKeepAlive": true, "SetKeepAlivePeriod": true,
	"SetLinger": true, "String": true, "Network": true,
	"append": true, "len": true, "cap": true, "delete": true, "close": true,
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// checkNode runs the every-path guard analysis over one function.
func (bg *blockGuard) checkNode(n *callgraph.Node) {
	info := n.Pkg.Info

	// selCases maps each receive expression that is a select comm (or
	// sits directly in one) to the number of clauses of its select.
	// rangeChan marks the ranged-over expressions of channel range
	// loops: the CFG records only the expression, not the RangeStmt.
	selCases := map[ast.Expr]int{}
	rangeChan := map[ast.Node]bool{}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		if r, ok := x.(*ast.RangeStmt); ok {
			if t := info.TypeOf(r.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					rangeChan[r.X] = true
				}
			}
			return true
		}
		sel, ok := x.(*ast.SelectStmt)
		if !ok {
			return true
		}
		clauses := len(sel.Body.List)
		for _, c := range sel.Body.List {
			comm, ok := c.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			switch s := comm.Comm.(type) {
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					selCases[u] = clauses
				}
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 {
					if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						selCases[u] = clauses
					}
				}
			}
		}
		return true
	})

	// Collect guard triggers and blocking sites per CFG node, in
	// source order within the node.
	eventsAt := map[ast.Node][]bgEvent{}
	scan := func(node ast.Node) []bgEvent {
		var evs []bgEvent
		ast.Inspect(node, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
				return false
			}
			switch x := x.(type) {
			case *ast.CallExpr:
				evs = append(evs, bg.callEvents(info, x)...)
			case *ast.BinaryExpr:
				if isComparison(x.Op) && (isDuration(info.TypeOf(x.X)) || isDuration(info.TypeOf(x.Y))) {
					evs = append(evs, bgEvent{kind: bgGuard, pos: x.Pos()})
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && selCases[x] < 2 && !isTimedChannel(info, x.X) {
					evs = append(evs, bgEvent{
						kind: bgRecv, pos: x.Pos(),
						what: "receive from " + types.ExprString(ast.Unparen(x.X)),
					})
				}
			}
			if e, ok := x.(ast.Expr); ok && rangeChan[e] {
				evs = append(evs, bgEvent{
					kind: bgRange, pos: e.Pos(),
					what: "range over " + types.ExprString(ast.Unparen(e)),
				})
			}
			return true
		})
		return evs
	}

	g := cfg.New(n.Body)
	any := false
	for _, blk := range g.Blocks {
		for _, node := range blk.Nodes {
			if _, done := eventsAt[node]; done {
				continue
			}
			evs := scan(node)
			eventsAt[node] = evs
			for _, e := range evs {
				if e.kind != bgGuard {
					any = true
				}
			}
		}
	}
	if !any {
		return
	}

	var fl *valueflow.FnFlow
	// isParamConn reports whether every origin of the conn value is a
	// parameter (or receiver) of this declared function: the deadline
	// obligation then belongs to the callers.
	isParamConn := func(e ast.Expr) bool {
		if n.Func == nil || e == nil {
			return false
		}
		if fl == nil {
			fl = valueflow.Flow(n, g)
		}
		origins := fl.Origins(e)
		if len(origins) == 0 {
			return false
		}
		sig, ok := n.Func.Type().(*types.Signature)
		if !ok {
			return false
		}
		isParam := func(v *types.Var) bool {
			if sig.Recv() == v {
				return true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i) == v {
					return true
				}
			}
			return false
		}
		for _, v := range origins {
			if !isParam(v) {
				return false
			}
		}
		return true
	}

	// guarded-on-every-path-so-far; meet is AND.
	fw := &cfg.Forward[bool]{
		Graph: g,
		Entry: false,
		Transfer: func(b *cfg.Block, in bool) bool {
			for _, node := range b.Nodes {
				for _, e := range eventsAt[node] {
					if e.kind == bgGuard {
						in = true
					}
				}
			}
			return in
		},
		Join:  func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
		Clone: func(v bool) bool { return v },
	}
	ins := fw.Fixpoint()

	reported := map[token.Pos]bool{}
	for _, blk := range g.Blocks {
		if blk.Index >= len(ins) {
			continue
		}
		guarded := ins[blk.Index]
		for _, node := range blk.Nodes {
			for _, e := range eventsAt[node] {
				switch e.kind {
				case bgGuard:
					guarded = true
				case bgConnIO, bgConnArg:
					if guarded || reported[e.pos] || bg.covered(e.pos) || isParamConn(e.conn) {
						continue
					}
					reported[e.pos] = true
					bg.pass.Reportf(e.pos,
						"blocking %s has no deadline on some path to it: call Set(Read|Write)?Deadline, gate it behind a time.Duration knob, or annotate //hvac:blockguard <reason>",
						e.what)
				case bgRecv, bgRange:
					if reported[e.pos] || bg.covered(e.pos) {
						continue
					}
					reported[e.pos] = true
					verb := "blocking %s has no alternative: select on a stop channel or timer, or annotate //hvac:blockguard <reason>"
					if e.kind == bgRange {
						verb = "%s blocks until the channel closes: select with a stop case inside the loop, or annotate //hvac:blockguard <reason>"
					}
					bg.pass.Reportf(e.pos, verb, e.what)
				}
			}
		}
	}
}

// callEvents classifies one call: a guard (deadline setter), a direct
// blocking conn Read/Write, and/or conn-argument blocking sites.
func (bg *blockGuard) callEvents(info *types.Info, call *ast.CallExpr) []bgEvent {
	// A type conversion is not a call.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	name := calleeName(call)
	var evs []bgEvent
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvT := info.TypeOf(sel.X)
		if bg.implementsConn(recvT) {
			switch name {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				return []bgEvent{{kind: bgGuard, pos: call.Pos()}}
			case "Read", "Write":
				evs = append(evs, bgEvent{
					kind: bgConnIO, pos: call.Pos(),
					what: types.ExprString(ast.Unparen(sel.X)) + "." + name,
					conn: sel.X,
				})
			}
		}
	}
	if exemptConnCallees[name] {
		return evs
	}
	for _, arg := range call.Args {
		arg = ast.Unparen(arg)
		if !bg.implementsConn(info.TypeOf(arg)) {
			continue
		}
		evs = append(evs, bgEvent{
			kind: bgConnArg, pos: arg.Pos(),
			what: "call to " + calleeLabel(call) + " passing conn " + types.ExprString(arg),
			conn: arg,
		})
	}
	return evs
}

func calleeLabel(call *ast.CallExpr) string {
	if name := calleeName(call); name != "" {
		return name
	}
	return types.ExprString(ast.Unparen(call.Fun))
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration"
}

// isTimedChannel reports whether ch is inherently bounded: the result
// of time.After/time.Tick, or the C field of a time.Timer/Ticker.
func isTimedChannel(info *types.Info, ch ast.Expr) bool {
	switch e := ast.Unparen(ch).(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && (fn.Name() == "After" || fn.Name() == "Tick") {
				return true
			}
		}
	case *ast.SelectorExpr:
		if e.Sel.Name != "C" {
			return false
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "time" {
			return true
		}
	}
	return false
}
