package analysis

// ownerpass: a must-release ownership analysis over the cfg package's
// control-flow graphs.
//
// Every pooled or refcounted resource in HVAC follows an
// acquire/release protocol the compiler cannot check:
//
//   - transport.GetBuffer        → transport.PutBuffer
//   - calls returning *Response  → (*Response).Release
//   - (*Store).PutWriter         → (*Fill).Commit or (*Fill).Abort
//   - (*Fill).Acquire            → (*Fill).Release
//   - (*Store).Lease             → (*Lease).Release
//
// The analyzer tracks a token per acquisition site through a forward
// dataflow over the function's CFG: assignments alias it, returns and
// channel sends transfer it, release calls retire it. Branch edges
// are refined against the dominant HVAC idiom (`resp, err := Call();
// if err != nil { ... }`): on the error edge the token was never
// handed out, on the nil-error edge it is live. A path that reaches a
// return with a live token is a leak; a release of an
// already-released token is a double release; a pooled buffer or
// response stored into a field, global or goroutine that never
// releases it is an escape.
//
// Interprocedural transfer uses per-function summaries propagated
// over the CHA call graph: a callee that releases (or returns) a
// resource parameter on every path takes ownership at the call site.
// Where inference cannot see the transfer, the callee can be
// annotated explicitly:
//
//	//hvac:owns <param-name> [<param-name>...]
//
// The analysis stays approximate in the low-false-positive direction:
// wrapping a token in a composite literal or passing it to an
// unresolved callee makes the analyzer drop its claim on the token
// rather than report.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hvac/internal/analysis/callgraph"
	"hvac/internal/analysis/cfg"
	"hvac/internal/analysis/valueflow"
)

// OwnerPass reports resource-protocol violations: leaked, double-
// released, discarded, and escaping pooled buffers, responses, fills
// and file handles.
var OwnerPass = &Analyzer{
	Name:      "ownerpass",
	Doc:       "pooled buffers, responses, fills and fd leases must be released on every path",
	RunModule: runOwnerPass,
}

// resKind classifies a tracked resource by its release protocol.
type resKind uint8

const (
	resBuffer   resKind = iota // transport.GetBuffer → PutBuffer
	resResponse                // *transport.Response → Release
	resFill                    // (*Store).PutWriter → Commit or Abort
	resFillRef                 // (*Fill).Acquire → Release
	resFillAny                 // a *Fill parameter: any of Commit/Abort/Release retires it
	resLease                   // (*Store).Lease → (*Lease).Release
)

func (k resKind) noun() string {
	switch k {
	case resBuffer:
		return "pooled buffer"
	case resResponse:
		return "pooled response"
	case resFill:
		return "in-progress fill"
	case resFillRef:
		return "fill reference"
	case resLease:
		return "fd lease"
	}
	return "fill"
}

func (k resKind) releaseVerb() string {
	switch k {
	case resBuffer:
		return "transport.PutBuffer"
	case resResponse:
		return "Release"
	case resFill:
		return "Commit or Abort"
	case resFillRef:
		return "Release"
	case resLease:
		return "Release"
	}
	return "a release"
}

// longLived reports whether parking the resource in a long-lived
// location (field, global, goroutine) without a visible release is
// a reportable escape. Fill lifecycles legitimately continue in other
// structures (fillEntry.publish), so only the pooled kinds report.
func (k resKind) longLivedEscapes() bool {
	return k == resBuffer || k == resResponse
}

const (
	transportPath  = "hvac/internal/transport"
	cachestorePath = "hvac/internal/cachestore"
)

// tokState is the per-path lifecycle state of one token, a bitmask so
// joins accumulate possibilities.
type tokState uint8

const (
	stUnborn   tokState = 1 << iota // not acquired on this path
	stLive                          // acquired; release still owed
	stReleased                      // released or ownership transferred
)

// resToken is one acquisition site's obligation.
type resToken struct {
	id   int
	kind resKind
	pos  token.Pos
	what string // human name of the acquiring call
}

// guardInfo records how a token's liveness can be refined at branches.
type guardInfo struct {
	// err: token live iff this error variable is nil.
	err *types.Var
	// ok: token live iff this boolean variable is true.
	ok *types.Var
	// call: token live iff this condition-position call returned true.
	call *ast.CallExpr
}

// opFact is the dataflow fact: token states, variable bindings and
// branch guards.
type opFact struct {
	st    map[*resToken]tokState
	bind  map[*types.Var][]*resToken
	guard map[*resToken]guardInfo
}

func newFact() *opFact {
	return &opFact{
		st:    map[*resToken]tokState{},
		bind:  map[*types.Var][]*resToken{},
		guard: map[*resToken]guardInfo{},
	}
}

func cloneFact(f *opFact) *opFact {
	out := &opFact{
		st:    make(map[*resToken]tokState, len(f.st)),
		bind:  make(map[*types.Var][]*resToken, len(f.bind)),
		guard: make(map[*resToken]guardInfo, len(f.guard)),
	}
	for k, v := range f.st {
		out.st[k] = v
	}
	for k, v := range f.bind {
		out.bind[k] = append([]*resToken(nil), v...)
	}
	for k, v := range f.guard {
		out.guard[k] = v
	}
	return out
}

// joinFact merges b into a (the control-flow merge): states union
// their bitmasks (absent = unborn), bindings union, and guards that
// disagree are dropped.
func joinFact(a, b *opFact) *opFact {
	for t, vb := range b.st {
		a.st[t] = a.st[t] | vb | unbornIfAbsent(a.st, t)
	}
	for t, va := range a.st {
		if _, ok := b.st[t]; !ok {
			a.st[t] = va | stUnborn
		}
	}
	for v, list := range b.bind {
		a.bind[v] = unionTokens(a.bind[v], list)
	}
	for t, gb := range b.guard {
		if ga, ok := a.guard[t]; !ok || ga != gb {
			delete(a.guard, t)
		}
	}
	for t := range a.guard {
		if _, ok := b.guard[t]; !ok {
			delete(a.guard, t)
		}
	}
	return a
}

func unbornIfAbsent(m map[*resToken]tokState, t *resToken) tokState {
	if _, ok := m[t]; !ok {
		return stUnborn
	}
	return 0
}

func unionTokens(a, b []*resToken) []*resToken {
	for _, t := range b {
		if !containsToken(a, t) {
			a = append(a, t)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].id < a[j].id })
	return a
}

func containsToken(list []*resToken, t *resToken) bool {
	for _, x := range list {
		if x == t {
			return true
		}
	}
	return false
}

func equalFact(a, b *opFact) bool {
	if len(a.st) != len(b.st) || len(a.bind) != len(b.bind) || len(a.guard) != len(b.guard) {
		return false
	}
	for t, v := range a.st {
		if b.st[t] != v {
			return false
		}
	}
	for v, la := range a.bind {
		lb, ok := b.bind[v]
		if !ok || len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	for t, g := range a.guard {
		if gb, ok := b.guard[t]; !ok || gb != g {
			return false
		}
	}
	return true
}

// fnSummary is a function's interprocedural contract for its
// resource-typed parameters.
type fnSummary struct {
	// owns: parameter index → released (or ownership transferred) on
	// every non-panic path: callers hand the obligation over.
	owns map[int]bool
	// some: released on at least one path (mixed): callers drop their
	// claim rather than report a leak they cannot prove.
	some map[int]bool
}

// ownerPass is the per-run state of the analyzer.
type ownerPass struct {
	pass      *ModulePass
	summaries map[*types.Func]*fnSummary
	decls     map[*types.Func]*ast.FuncDecl
	cfgs      map[*callgraph.Node]*cfg.Graph
}

func runOwnerPass(p *ModulePass) {
	op := &ownerPass{
		pass:      p,
		summaries: map[*types.Func]*fnSummary{},
		decls:     map[*types.Func]*ast.FuncDecl{},
		cfgs:      map[*callgraph.Node]*cfg.Graph{},
	}
	op.collectDecls()
	op.seedBuiltinSummaries()
	op.seedAnnotations()
	op.summaryFixpoint()
	for _, n := range p.Graph.Nodes() {
		if n.Body == nil {
			continue
		}
		op.analyzeFunc(n, true)
	}
}

func (op *ownerPass) collectDecls() {
	for _, pkg := range op.pass.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					op.decls[fn] = fd
				}
			}
		}
	}
}

// seedBuiltinSummaries installs the release functions whose ownership
// the analyzer knows a priori: transport.PutBuffer consumes its buffer.
func (op *ownerPass) seedBuiltinSummaries() {
	if tp := op.pass.FindPackage(transportPath); tp != nil {
		if fn, ok := tp.Scope().Lookup("PutBuffer").(*types.Func); ok {
			op.summaries[fn] = &fnSummary{owns: map[int]bool{0: true}, some: map[int]bool{0: true}}
		}
	}
}

// seedAnnotations parses //hvac:owns doc-comment lines into forced
// summaries, for transfers inference cannot see.
func (op *ownerPass) seedAnnotations() {
	for fn, fd := range op.decls {
		if fd.Doc == nil {
			continue
		}
		sig := fn.Type().(*types.Signature)
		for _, c := range fd.Doc.List {
			if !strings.HasPrefix(c.Text, "//hvac:owns") {
				continue
			}
			names := strings.Fields(strings.TrimPrefix(c.Text, "//hvac:owns"))
			s := op.summaryFor(fn)
			for _, name := range names {
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i).Name() == name {
						s.owns[i] = true
						s.some[i] = true
					}
				}
			}
		}
	}
}

func (op *ownerPass) summaryFor(fn *types.Func) *fnSummary {
	s, ok := op.summaries[fn]
	if !ok {
		s = &fnSummary{owns: map[int]bool{}, some: map[int]bool{}}
		op.summaries[fn] = s
	}
	return s
}

// summaryFixpoint infers owns/some for every declared function with
// resource-typed parameters, iterating so wrapper chains (A releases
// by calling B, which releases) converge. The owns/some sets only
// grow, so the valueflow round driver converges in a handful of
// rounds.
func (op *ownerPass) summaryFixpoint() {
	var cands []*callgraph.Node
	for _, n := range op.pass.Graph.Nodes() {
		if n.Func == nil || n.Body == nil {
			continue
		}
		sig := n.Func.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if _, ok := paramResKind(sig.Params().At(i).Type()); ok {
				cands = append(cands, n)
				break
			}
		}
	}
	valueflow.Fixpoint(8, func() bool {
		changed := false
		for _, n := range cands {
			res := op.analyzeFunc(n, false)
			s := op.summaryFor(n.Func)
			for i, all := range res.releasedAll {
				if all && !s.owns[i] {
					s.owns[i] = true
					changed = true
				}
			}
			for i, some := range res.releasedSome {
				if some && !s.some[i] {
					s.some[i] = true
					changed = true
				}
			}
		}
		return changed
	})
}

// paramResKind classifies a parameter type as a trackable resource.
// []byte parameters are deliberately excluded (too generic); buffer
// ownership transfer through helpers uses the //hvac:owns annotation.
func paramResKind(t types.Type) (resKind, bool) {
	switch path, name := namedPtrPath(t); {
	case path == transportPath && name == "Response":
		return resResponse, true
	case path == cachestorePath && name == "Fill":
		return resFillAny, true
	case path == cachestorePath && name == "Lease":
		return resLease, true
	}
	return 0, false
}

// namedPtrPath unwraps *pkg.Name into its package path and type name.
func namedPtrPath(t types.Type) (string, string) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// shortName compresses a types.Func full name for diagnostics:
// "(*hvac/internal/cachestore.Store).PutWriter" → "(*cachestore.Store).PutWriter".
func shortName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "hvac/internal/", "")
}

// fnResult is the summary-mode outcome of one function analysis.
type fnResult struct {
	releasedAll  map[int]bool
	releasedSome map[int]bool
}

// exprCtx tells handleCall what happens to the call's results.
type exprCtx uint8

const (
	ctxNested   exprCtx = iota // value flows somewhere untracked
	ctxDiscard                 // expression statement / blank assign
	ctxCond                    // branch condition: guarded acquisition
	ctxTransfer                // return or send position
	ctxBound                   // an assignment will bind the results
)

// reportKey dedupes diagnostics: one report per (token, category).
type reportKey struct {
	t   *resToken
	cat uint8
}

const (
	repLeak uint8 = iota
	repDiscard
	repEscape
	repGoroutine
	repReacquire
	repDouble
)

// fnAnalysis is the per-function walk state.
type fnAnalysis struct {
	op        *ownerPass
	node      *callgraph.Node
	info      *types.Info
	tokens    []*resToken
	bySite    map[ast.Node]*resToken
	noclaim   map[*resToken]bool
	reported  map[reportKey]bool
	params    map[int]*resToken // summary mode: parameter tokens
	reporting bool
}

// reportOnce emits one diagnostic per (token, category); the fixpoint
// phase never reports, so markers are only set during the final sweep.
func (fa *fnAnalysis) reportOnce(t *resToken, cat uint8, pos token.Pos, format string, args ...any) {
	if !fa.reporting || fa.reported[reportKey{t, cat}] {
		return
	}
	fa.reported[reportKey{t, cat}] = true
	fa.op.pass.Reportf(pos, format, args...)
}

// analyzeFunc runs the dataflow over one function. With report=false
// it returns the parameter release summary; with report=true it emits
// diagnostics through the module pass.
func (op *ownerPass) analyzeFunc(n *callgraph.Node, report bool) *fnResult {
	g, ok := op.cfgs[n]
	if !ok {
		g = cfg.New(n.Body)
		op.cfgs[n] = g
	}
	fa := &fnAnalysis{
		op:       op,
		node:     n,
		info:     n.Pkg.Info,
		bySite:   map[ast.Node]*resToken{},
		noclaim:  map[*resToken]bool{},
		reported: map[reportKey]bool{},
		params:   map[int]*resToken{},
	}
	entry := newFact()
	if !report && n.Func != nil {
		sig := n.Func.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			v := sig.Params().At(i)
			if kind, ok := paramResKind(v.Type()); ok {
				t := fa.newToken(kind, v.Pos(), "parameter "+v.Name())
				fa.params[i] = t
				entry.st[t] = stLive
				entry.bind[v] = []*resToken{t}
			}
		}
	}
	fw := &cfg.Forward[*opFact]{
		Graph:    g,
		Entry:    entry,
		Transfer: fa.transferBlock,
		Refine:   fa.refineEdge,
		Join:     joinFact,
		Equal:    equalFact,
		Clone:    cloneFact,
	}
	ins := fw.Fixpoint()

	// Final sweep in block order: reports (or the summary) come from
	// the stable in-facts, each block visited exactly once.
	res := &fnResult{releasedAll: map[int]bool{}, releasedSome: map[int]bool{}}
	for i := range fa.params {
		res.releasedAll[i] = true
	}
	fa.reporting = report
	for _, blk := range g.Blocks {
		if blk.Kind == cfg.KindExit {
			continue
		}
		f := fa.transferBlock(blk, cloneFact(ins[blk.Index]))
		for _, succ := range blk.Succs {
			if succ == g.Exit {
				fa.checkExit(blk, f, res)
			}
		}
	}
	return res
}

func (fa *fnAnalysis) newToken(kind resKind, pos token.Pos, what string) *resToken {
	t := &resToken{id: len(fa.tokens), kind: kind, pos: pos, what: what}
	fa.tokens = append(fa.tokens, t)
	return t
}

// checkExit inspects the fact leaving blk on its edge into the exit
// block: live tokens leak (unless the exit is a panic), and parameter
// tokens feed the summary.
func (fa *fnAnalysis) checkExit(blk *cfg.Block, f *opFact, res *fnResult) {
	if _, isPanic := blk.Term.(*ast.CallExpr); isPanic {
		return // a panicking path tolerates leaks: the pool just misses
	}
	for i, t := range fa.params {
		st, ok := f.st[t]
		if !ok {
			st = stUnborn
		}
		if st&stLive != 0 {
			res.releasedAll[i] = false
		}
		if st&stReleased != 0 {
			res.releasedSome[i] = true
		}
	}
	if !fa.reporting {
		return
	}
	exitLine := fa.exitLine(blk)
	for _, t := range fa.tokens {
		if fa.noclaim[t] || f.st[t]&stLive == 0 {
			continue
		}
		fa.reportOnce(t, repLeak, t.pos, "%s from %s may leak: a path reaches the function exit at line %d without %s",
			t.kind.noun(), t.what, exitLine, t.kind.releaseVerb())
	}
}

func (fa *fnAnalysis) exitLine(blk *cfg.Block) int {
	pos := fa.node.Body.End()
	if blk.Term != nil {
		pos = blk.Term.Pos()
	} else if len(blk.Nodes) > 0 {
		pos = blk.Nodes[len(blk.Nodes)-1].Pos()
	}
	return fa.op.pass.Fset.Position(pos).Line
}

// transferBlock applies every node of the block to the fact.
func (fa *fnAnalysis) transferBlock(blk *cfg.Block, f *opFact) *opFact {
	for _, n := range blk.Nodes {
		fa.applyNode(n, f)
	}
	return f
}

func (fa *fnAnalysis) applyNode(n ast.Node, f *opFact) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fa.assign(n.Lhs, n.Rhs, f)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, id := range vs.Names {
					lhs[i] = id
				}
				fa.assign(lhs, vs.Values, f)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			fa.handleCall(call, f, ctxDiscard)
		} else {
			fa.scanCalls(n.X, f, ctxNested)
		}
	case *ast.DeferStmt:
		fa.handleCall(n.Call, f, ctxDiscard)
	case *ast.GoStmt:
		fa.goStmt(n, f)
	case *ast.SendStmt:
		fa.scanCalls(n.Chan, f, ctxNested)
		fa.scanCalls(n.Value, f, ctxTransfer)
		fa.transferIdents(n.Value, f)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			fa.scanCalls(r, f, ctxTransfer)
			fa.transferIdents(r, f)
		}
	case *ast.IncDecStmt:
		// no effect
	case ast.Expr:
		// A branch condition, range/switch head expression or case
		// expression: calls acquire under a condition guard.
		fa.scanCalls(n, f, ctxCond)
	default:
		if stmt, ok := n.(ast.Stmt); ok {
			fa.scanStmtExprs(stmt, f)
		}
	}
}

// scanStmtExprs conservatively processes the calls of an otherwise
// unmodeled statement.
func (fa *fnAnalysis) scanStmtExprs(s ast.Stmt, f *opFact) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fa.handleCall(n, f, ctxNested)
			return false
		}
		return true
	})
}

// assign handles both forms of Go assignment. A single multi-value
// call on the right binds its resource results to the left-hand
// variables; otherwise values pair off positionally.
func (fa *fnAnalysis) assign(lhs, rhs []ast.Expr, f *opFact) {
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			fa.assignCall(lhs, call, f)
			return
		}
	}
	for i, r := range rhs {
		var l ast.Expr
		if i < len(lhs) {
			l = lhs[i]
		}
		fa.assignOne(l, r, f)
	}
}

// assignCall binds the resource results of a call to the assignment's
// left-hand side, attaching an error-variable guard when the call
// also returns an error.
func (fa *fnAnalysis) assignCall(lhs []ast.Expr, call *ast.CallExpr, f *opFact) {
	fa.callEffects(call, f)

	var errVar *types.Var
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
			if v, ok := fa.info.ObjectOf(id).(*types.Var); ok && isErrorType(v.Type()) {
				errVar = v
			}
		}
	}

	for _, acq := range fa.acquisitions(call) {
		if acq.recv != nil {
			// Receiver-subject acquisition (Fill.Acquire): the token
			// lives on the receiver, guarded by the boolean result.
			t := fa.acquire(acq, call, f)
			fa.bindVar(f, acq.recv, t)
			g := guardInfo{}
			if len(lhs) > 0 {
				if id, ok := lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if v, ok := fa.info.ObjectOf(id).(*types.Var); ok {
						g.ok = v
					}
				}
			}
			f.guard[t] = g
			continue
		}
		var l ast.Expr
		if acq.index < len(lhs) {
			l = lhs[acq.index]
		}
		t := fa.acquire(acq, call, f)
		if errVar != nil {
			f.guard[t] = guardInfo{err: errVar}
		}
		switch l := l.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				fa.discard(t, call, f)
				continue
			}
			if v, ok := fa.info.ObjectOf(l).(*types.Var); ok {
				fa.bindVar(f, v, t)
			}
		case nil:
			fa.discard(t, call, f)
		default:
			// Field, index or dereference target: the token escapes
			// the frame immediately.
			fa.escapeStore(t, l, f)
		}
	}
}

// assignOne handles one positional lhs = rhs pair: aliasing, escapes
// and rebinding.
func (fa *fnAnalysis) assignOne(l, r ast.Expr, f *opFact) {
	fa.scanCalls(r, f, ctxNested)
	toks := fa.boundTokens(r, f)
	lid, _ := l.(*ast.Ident)
	if len(toks) > 0 {
		switch {
		case lid != nil && lid.Name == "_":
			// `_ = tok` silences the compiler; not a transfer.
		case lid != nil:
			if v, ok := fa.info.ObjectOf(lid).(*types.Var); ok {
				if fa.isLongLivedVar(v) {
					for _, t := range toks {
						fa.escapeStore(t, l, f)
					}
					return
				}
				f.bind[v] = unionTokens(nil, toks)
			}
		case l != nil:
			for _, t := range toks {
				fa.escapeStore(t, l, f)
			}
		}
		return
	}
	// Rebinding a tracked variable to a non-token value drops the
	// binding; the token itself stays tracked for the exit check.
	if lid != nil && lid.Name != "_" {
		if v, ok := fa.info.ObjectOf(lid).(*types.Var); ok {
			delete(f.bind, v)
		}
	}
}

// isLongLivedVar reports whether v is a package-level variable.
func (fa *fnAnalysis) isLongLivedVar(v *types.Var) bool {
	return v.Parent() != nil && fa.node.Pkg.Types != nil && v.Parent() == fa.node.Pkg.Types.Scope()
}

// boundTokens returns the tokens bound to r when r is (the address
// of) a simple identifier.
func (fa *fnAnalysis) boundTokens(r ast.Expr, f *opFact) []*resToken {
	switch r := ast.Unparen(r).(type) {
	case *ast.Ident:
		if v, ok := fa.info.ObjectOf(r).(*types.Var); ok {
			return f.bind[v]
		}
	case *ast.UnaryExpr:
		if r.Op == token.AND {
			return fa.boundTokens(r.X, f)
		}
	}
	return nil
}

// transferIdents retires every token whose variable appears as a
// whole value in e (return results, channel sends, composite-literal
// elements): ownership moves to the receiver.
func (fa *fnAnalysis) transferIdents(e ast.Expr, f *opFact) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		for _, t := range fa.boundTokens(e, f) {
			f.st[t] = stReleased
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			fa.transferIdents(e.X, f)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fa.transferIdents(kv.Value, f)
				continue
			}
			fa.transferIdents(el, f)
		}
	}
}

// discard reports a dropped acquisition and stops tracking the token.
func (fa *fnAnalysis) discard(t *resToken, call *ast.CallExpr, f *opFact) {
	fa.reportOnce(t, repDiscard, call.Pos(), "%s from %s is discarded: bind the result and %s it",
		t.kind.noun(), t.what, t.kind.releaseVerb())
	fa.noclaim[t] = true
	f.st[t] = stReleased
}

// escapeStore handles a token stored into a field, element or global:
// pooled kinds report, fill lifecycles just drop the claim.
func (fa *fnAnalysis) escapeStore(t *resToken, l ast.Expr, f *opFact) {
	if t.kind.longLivedEscapes() {
		fa.reportOnce(t, repEscape, l.Pos(), "%s from %s escapes to a long-lived location without ownership transfer: release it here or move the release with the value",
			t.kind.noun(), t.what)
	}
	fa.noclaim[t] = true
	f.st[t] = stReleased
}

// goStmt hands tokens captured by a spawned goroutine over when the
// goroutine visibly releases them, and reports pooled kinds that
// escape without a release.
func (fa *fnAnalysis) goStmt(s *ast.GoStmt, f *opFact) {
	call := s.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		fa.funcLitEffects(lit, call.Pos(), f, true)
		for _, arg := range call.Args {
			fa.argTransfer(arg, call.Pos(), f)
		}
		return
	}
	fa.callEffects(call, f)
	for _, arg := range call.Args {
		fa.argTransfer(arg, call.Pos(), f)
	}
}

// argTransfer treats a token argument of a go statement as moved into
// the goroutine; the callee summary (applied by callEffects) already
// released owned parameters, so what remains is an escape for pooled
// kinds.
func (fa *fnAnalysis) argTransfer(arg ast.Expr, pos token.Pos, f *opFact) {
	for _, t := range fa.boundTokens(arg, f) {
		if f.st[t]&stLive != 0 && t.kind.longLivedEscapes() {
			fa.reportOnce(t, repGoroutine, pos, "%s from %s escapes into a goroutine that never releases it",
				t.kind.noun(), t.what)
		}
		fa.noclaim[t] = true
		f.st[t] = stReleased
	}
}

// funcLitEffects processes a literal passed somewhere (goroutine,
// deferred wrapper, callback): tokens it releases are handed over;
// tokens it merely captures escape when spawned as a goroutine.
func (fa *fnAnalysis) funcLitEffects(lit *ast.FuncLit, pos token.Pos, f *opFact, spawned bool) {
	vars := make([]*types.Var, 0, len(f.bind))
	for v := range f.bind {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		if !identUsed(lit.Body, fa.info, v) {
			continue
		}
		released := fa.litReleases(lit.Body, v)
		for _, t := range f.bind[v] {
			if released {
				f.st[t] = stReleased
				continue
			}
			if spawned {
				if f.st[t]&stLive != 0 && t.kind.longLivedEscapes() {
					fa.reportOnce(t, repGoroutine, pos, "%s from %s escapes into a goroutine that never releases it",
						t.kind.noun(), t.what)
				}
				fa.noclaim[t] = true
				f.st[t] = stReleased
			}
			// Captured by a non-spawned literal (callback): borrow —
			// the token's state is untouched.
		}
	}
}

func identUsed(body ast.Node, info *types.Info, v *types.Var) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
			used = true
		}
		return !used
	})
	return used
}

// litReleases reports whether the literal body releases v through any
// recognized release form.
func (fa *fnAnalysis) litReleases(body ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if recv, _ := fa.releaseTarget(call); recv != nil && fa.info.ObjectOf(recv) == v {
			found = true
		}
		if s := fa.calleeSummary(call); s != nil {
			for i, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && fa.info.ObjectOf(id) == v && s.owns[i] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// scanCalls processes every outermost call in e with the given
// context, plus transfers for composite wrapping when ctxTransfer.
func (fa *fnAnalysis) scanCalls(e ast.Expr, f *opFact, ctx exprCtx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fa.handleCall(n, f, ctx)
			return false
		}
		return true
	})
}

// handleCall is the single entry point for one call expression: it
// applies release semantics, argument effects, nested calls and —
// depending on context — acquisition tracking.
func (fa *fnAnalysis) handleCall(call *ast.CallExpr, f *opFact, ctx exprCtx) {
	fa.callEffects(call, f)
	for _, acq := range fa.acquisitions(call) {
		t := fa.acquire(acq, call, f)
		switch {
		case acq.recv != nil:
			// Condition-position Fill.Acquire: bind the receiver and
			// guard on the call itself.
			fa.bindVar(f, acq.recv, t)
			if ctx == ctxCond {
				f.guard[t] = guardInfo{call: call}
			} else {
				fa.noclaim[t] = true
			}
		case ctx == ctxTransfer:
			f.st[t] = stReleased // created and immediately handed out
		case ctx == ctxDiscard:
			fa.discard(t, call, f)
		case ctx == ctxCond:
			f.guard[t] = guardInfo{call: call}
		default: // ctxNested: flows somewhere this analysis cannot follow
			fa.noclaim[t] = true
		}
	}
}

// acquire returns the (site-stable) token for one acquisition,
// flagging loop iterations that re-acquire while the previous token
// is still unreleased on every path back.
func (fa *fnAnalysis) acquire(acq acqSite, call *ast.CallExpr, f *opFact) *resToken {
	key := ast.Node(call)
	t, ok := fa.bySite[key]
	if !ok {
		t = fa.newToken(acq.kind, call.Pos(), acq.what)
		fa.bySite[key] = t
	}
	if prev, ok := f.st[t]; ok && prev == stLive && !fa.noclaim[t] {
		fa.reportOnce(t, repReacquire, call.Pos(), "%s from %s is re-acquired while the previous acquisition is still live on every looping path: missing %s inside the loop",
			t.kind.noun(), t.what, t.kind.releaseVerb())
	}
	f.st[t] = stLive
	delete(f.guard, t)
	return t
}

func (fa *fnAnalysis) bindVar(f *opFact, v *types.Var, t *resToken) {
	f.bind[v] = unionTokens(nil, []*resToken{t})
}

// callEffects applies a call's release semantics: method releases,
// callee-summary ownership of arguments, literal callbacks and
// composite-wrapped tokens. Nested calls inside arguments recurse.
func (fa *fnAnalysis) callEffects(call *ast.CallExpr, f *opFact) {
	if recv, kinds := fa.releaseTarget(call); recv != nil {
		if v, ok := fa.info.ObjectOf(recv).(*types.Var); ok {
			fa.applyRelease(call, f, f.bind[v], kinds)
		}
		for _, arg := range call.Args {
			fa.scanCalls(arg, f, ctxNested)
		}
		return
	}
	s := fa.calleeSummary(call)
	for i, arg := range call.Args {
		switch arg := ast.Unparen(arg).(type) {
		case *ast.Ident:
			toks := fa.boundTokens(arg, f)
			if len(toks) == 0 {
				continue
			}
			switch {
			case s != nil && s.owns[i]:
				fa.applyReleaseTokens(call, f, toks)
			case s != nil && s.some[i]:
				for _, t := range toks {
					fa.noclaim[t] = true
				}
			}
			// Otherwise the callee borrows: no state change.
		case *ast.UnaryExpr:
			if arg.Op == token.AND {
				if toks := fa.boundTokens(arg, f); len(toks) > 0 && s != nil && s.owns[i] {
					fa.applyReleaseTokens(call, f, toks)
				}
				continue
			}
			fa.scanCalls(arg, f, ctxNested)
		case *ast.CompositeLit:
			// Wrapping a token in a composite argument: for fills the
			// wrapper (fillWriter) borrows — the Commit/Abort
			// obligation stays here; pooled kinds lose the claim.
			for _, t := range fa.compositeTokens(arg, f) {
				if t.kind.longLivedEscapes() {
					fa.noclaim[t] = true
					f.st[t] = stReleased
				}
			}
			fa.scanCalls(arg, f, ctxNested)
		case *ast.FuncLit:
			fa.funcLitEffects(arg, call.Pos(), f, false)
		default:
			fa.scanCalls(arg, f, ctxNested)
		}
	}
}

func (fa *fnAnalysis) compositeTokens(cl *ast.CompositeLit, f *opFact) []*resToken {
	var out []*resToken
	for _, el := range cl.Elts {
		e := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		out = append(out, fa.boundTokens(e, f)...)
	}
	return out
}

// applyRelease retires the receiver-bound tokens matching the release
// kinds, reporting a double release when every path has already
// released the token.
func (fa *fnAnalysis) applyRelease(call *ast.CallExpr, f *opFact, toks []*resToken, kinds map[resKind]bool) {
	matched := toks[:0:0]
	for _, t := range toks {
		if kinds[t.kind] {
			matched = append(matched, t)
		}
	}
	fa.applyReleaseTokens(call, f, matched)
}

func (fa *fnAnalysis) applyReleaseTokens(call *ast.CallExpr, f *opFact, toks []*resToken) {
	for _, t := range toks {
		if st, ok := f.st[t]; ok && st == stReleased && !fa.noclaim[t] && fa.reporting {
			// Keyed by token only: one double-release report per token
			// keeps loops from repeating it.
			fa.reportOnce(t, repDouble, call.Pos(), "double release: the %s from %s was already released on every path reaching this call",
				t.kind.noun(), t.what)
		}
		f.st[t] = stReleased
	}
}

// releaseTarget recognizes the method-form releases and returns the
// receiver identifier plus the token kinds the method retires.
func (fa *fnAnalysis) releaseTarget(call *ast.CallExpr) (*ast.Ident, map[resKind]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	fn := fa.staticCallee(call)
	if fn == nil {
		return nil, nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, nil
	}
	path, name := recvTypePath(sig.Recv().Type())
	switch {
	case path == transportPath && name == "Response" && fn.Name() == "Release":
		return recv, map[resKind]bool{resResponse: true}
	case path == cachestorePath && name == "Fill" && (fn.Name() == "Commit" || fn.Name() == "Abort"):
		return recv, map[resKind]bool{resFill: true, resFillAny: true}
	case path == cachestorePath && name == "Fill" && fn.Name() == "Release":
		return recv, map[resKind]bool{resFillRef: true, resFillAny: true}
	case path == cachestorePath && name == "Lease" && fn.Name() == "Release":
		return recv, map[resKind]bool{resLease: true}
	}
	return nil, nil
}

func recvTypePath(t types.Type) (string, string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

func (fa *fnAnalysis) calleeSummary(call *ast.CallExpr) *fnSummary {
	fn := fa.staticCallee(call)
	if fn == nil {
		return nil
	}
	return fa.op.summaries[fn]
}

func (fa *fnAnalysis) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := fa.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := fa.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// acqSite describes one acquisition a call performs.
type acqSite struct {
	index int        // result index carrying the resource
	kind  resKind    //
	what  string     // human name for diagnostics
	recv  *types.Var // receiver-subject acquisitions (Fill.Acquire)
}

// acquisitions classifies a call's resource outputs: any result typed
// *transport.Response, *cachestore.Fill or *cachestore.Lease, []byte
// from transport.GetBuffer, and the receiver of Fill.Acquire.
func (fa *fnAnalysis) acquisitions(call *ast.CallExpr) []acqSite {
	// Skip conversions (`T(x)`) — they have no callee signature.
	if tv, ok := fa.info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	fn := fa.staticCallee(call)

	// Receiver-subject: fl.Acquire() acquires a reference on fl.
	if fn != nil && fn.Name() == "Acquire" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if path, name := recvTypePath(sig.Recv().Type()); path == cachestorePath && name == "Fill" {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if v, ok := fa.info.ObjectOf(id).(*types.Var); ok {
							return []acqSite{{kind: resFillRef, what: "(*cachestore.Fill).Acquire", recv: v}}
						}
					}
				}
				return nil
			}
		}
	}

	ft := fa.info.TypeOf(call.Fun)
	if ft == nil {
		return nil
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return nil // builtin
	}
	what := "a call"
	if fn != nil {
		what = shortName(fn)
	}
	var out []acqSite
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		switch path, name := namedPtrPath(results.At(i).Type()); {
		case path == transportPath && name == "Response":
			out = append(out, acqSite{index: i, kind: resResponse, what: what})
		case path == cachestorePath && name == "Fill":
			out = append(out, acqSite{index: i, kind: resFill, what: what})
		case path == cachestorePath && name == "Lease":
			out = append(out, acqSite{index: i, kind: resLease, what: what})
		}
	}
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == transportPath && fn.Name() == "GetBuffer" {
		out = append(out, acqSite{index: 0, kind: resBuffer, what: "transport.GetBuffer"})
	}
	return out
}

// refineEdge sharpens token states along a conditional branch edge.
func (fa *fnAnalysis) refineEdge(blk *cfg.Block, i int, f *opFact) *opFact {
	if blk.Cond == nil {
		return f
	}
	branch := i == 0
	fa.refineCond(blk.Cond, branch, f)
	if !branch {
		// Short-circuit: when a guard call (fl.Acquire()) is a
		// positive conjunct of the whole condition, a false outcome
		// means the acquisition either never ran or returned false —
		// the token is not held on this edge.
		for _, t := range fa.tokens {
			if g, ok := f.guard[t]; ok && g.call != nil && positiveConjunct(blk.Cond, g.call) {
				f.st[t] = stUnborn
			}
		}
	}
	return f
}

// positiveConjunct reports whether call appears as a bare conjunct of
// e (e itself, or an operand of a && chain) — the positions where the
// condition being false implies the call was skipped or returned
// false.
func positiveConjunct(e ast.Expr, call *ast.CallExpr) bool {
	e = ast.Unparen(e)
	if e == ast.Expr(call) {
		return true
	}
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.LAND {
		return positiveConjunct(b.X, call) || positiveConjunct(b.Y, call)
	}
	return false
}

// refineCond decomposes the condition into refinable atoms:
// err == nil / err != nil, tok == nil / tok != nil, guard booleans,
// guard calls, and &&/||/! combinations thereof.
func (fa *fnAnalysis) refineCond(e ast.Expr, branch bool, f *opFact) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			fa.refineCond(e.X, !branch, f)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if branch {
				fa.refineCond(e.X, true, f)
				fa.refineCond(e.Y, true, f)
			}
		case token.LOR:
			if !branch {
				fa.refineCond(e.X, false, f)
				fa.refineCond(e.Y, false, f)
			}
		case token.EQL, token.NEQ:
			fa.refineComparison(e, branch, f)
		}
	case *ast.Ident:
		fa.refineBool(e, branch, f)
	case *ast.CallExpr:
		fa.refineCall(e, branch, f)
	}
}

func (fa *fnAnalysis) refineComparison(e *ast.BinaryExpr, branch bool, f *opFact) {
	x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
	id, ok := x.(*ast.Ident)
	other := y
	if !ok {
		id, ok = y.(*ast.Ident)
		other = x
	}
	if !ok || !isNilIdent(other) {
		return
	}
	// `id == nil` true (or `id != nil` false) ⇒ nil on this edge.
	isNilEdge := branch == (e.Op == token.EQL)
	v, ok := fa.info.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	// The identifier may be the token itself...
	for _, t := range f.bind[v] {
		if isNilEdge {
			f.st[t] = stUnborn
		} else {
			f.st[t] = stLive
		}
	}
	// ...or the error variable guarding one or more tokens.
	if isErrorType(v.Type()) {
		for _, t := range fa.tokens {
			if g, ok := f.guard[t]; ok && g.err == v {
				if isNilEdge {
					f.st[t] = stLive // err == nil ⇒ acquisition succeeded
				} else {
					f.st[t] = stUnborn
				}
			}
		}
	}
}

func (fa *fnAnalysis) refineBool(id *ast.Ident, branch bool, f *opFact) {
	v, ok := fa.info.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	for _, t := range fa.tokens {
		if g, ok := f.guard[t]; ok && g.ok == v {
			if branch {
				f.st[t] = stLive
			} else {
				f.st[t] = stUnborn
			}
		}
	}
}

func (fa *fnAnalysis) refineCall(call *ast.CallExpr, branch bool, f *opFact) {
	for _, t := range fa.tokens {
		if g, ok := f.guard[t]; ok && g.call == call {
			if branch {
				f.st[t] = stLive
			} else {
				f.st[t] = stUnborn
			}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
