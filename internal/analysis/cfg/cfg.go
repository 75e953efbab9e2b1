// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, using only the standard library. It is the engine
// under hvaclint's path-sensitive analyzers (ownerpass): a Graph of
// basic blocks with explicit branch, loop, switch, select, panic and
// return edges, over which dataflow fixpoints (dataflow.go) run.
//
// The graph is purely syntactic — no type information is needed to
// build it — and deterministic: building the same body twice yields
// blocks in the same order with the same indices, so analyzers that
// iterate blocks in index order report findings in a stable order.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// BlockKind distinguishes the two synthetic blocks from ordinary body
// blocks.
type BlockKind uint8

const (
	// KindBody is an ordinary basic block of statements.
	KindBody BlockKind = iota
	// KindEntry is the function entry block (Blocks[0]); it may also
	// hold the first statements of the body.
	KindEntry
	// KindExit is the single synthetic exit block every return, panic
	// and fall-off-the-end edge targets. It holds no nodes.
	KindExit
)

// A Block is one basic block: a maximal straight-line sequence of
// nodes with branching only at the end.
type Block struct {
	// Index is the block's position in Graph.Blocks — deterministic
	// across builds of the same body.
	Index int
	// Kind marks entry/exit blocks.
	Kind BlockKind
	// Nodes are the statements and branch-condition expressions of the
	// block in execution order. Range heads carry the ranged-over
	// expression; switch heads carry the tag; select heads are empty.
	Nodes []ast.Node
	// Cond, when non-nil, is the boolean condition ending the block:
	// Succs[0] is the true edge and Succs[1] the false edge. Blocks
	// with nil Cond and multiple successors (range heads, switch and
	// select dispatch) branch nondeterministically.
	Cond ast.Expr
	// Succs are the successor blocks in deterministic order.
	Succs []*Block
	// Preds are the predecessor blocks.
	Preds []*Block
	// Term records why control leaves the function from this block:
	// the *ast.ReturnStmt or panic *ast.CallExpr behind an edge to
	// Exit, or the *ast.SelectStmt of a case-less select that blocks
	// forever (no exit edge at all). It is nil for the implicit
	// fall-off-the-end edge of a void function.
	Term ast.Node
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every reachable block. Blocks[0] is the entry; the
	// exit block is always last.
	Blocks []*Block
	// Entry is Blocks[0].
	Entry *Block
	// Exit is the synthetic exit block (always present, possibly
	// unreachable in a function that cannot return, e.g. `for {}`).
	Exit *Block
	// Defers lists every defer statement of the body in source order.
	// Deferred calls conceptually run on every edge into Exit;
	// analyses that care apply them when checking exit facts.
	Defers []*ast.DeferStmt
}

// New builds the control-flow graph of body. A nil body (external or
// assembly function) yields a two-block graph with an entry→exit edge.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{Exit: &Block{Kind: KindExit}}
	b := &builder{g: g, labels: map[string]*Block{}}
	entry := b.newBlock()
	entry.Kind = KindEntry
	g.Entry = entry
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(g.Exit, nil)
	b.finish()
	return g
}

// builder holds the state of one graph construction.
type builder struct {
	g   *Graph
	cur *Block
	// blocks accumulates every created block in creation order; finish
	// prunes the unreachable ones and assigns final indices.
	blocks []*Block
	// breaks and continues are the innermost-first stacks of branch
	// targets; each frame remembers the label of the enclosing labeled
	// statement (empty for unlabeled).
	breaks    []branchTarget
	continues []branchTarget
	// labels maps a label name to its target block, created lazily so
	// forward gotos resolve.
	labels map[string]*Block
	// pendingLabel is the label of the LabeledStmt whose inner
	// statement is about to be processed.
	pendingLabel string
	// fallTarget is the next case clause's body during switch clause
	// processing, the target of a fallthrough statement.
	fallTarget *Block
}

type branchTarget struct {
	label string
	block *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.blocks = append(b.blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target (recording term
// as the exit reason when target is Exit) and leaves the builder on a
// fresh, unreachable block so statements after a terminator parse
// without special cases — pruning removes the dead block later.
func (b *builder) jump(target *Block, term ast.Node) {
	if term != nil {
		b.cur.Term = term
	}
	addEdge(b.cur, target)
	b.cur = b.newBlock()
}

// add appends a node to the current block.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// startBlock ends the current block with a fall-through edge into a
// new block and makes the new block current.
func (b *builder) startBlock() *Block {
	blk := b.newBlock()
	addEdge(b.cur, blk)
	b.cur = blk
	return blk
}

func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findTarget resolves a break/continue to its target block.
func (b *builder) findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall reports whether e is a call to the predeclared panic.
// Purely syntactic: a shadowed `panic` identifier would be
// misclassified, which the code base never does.
func isPanicCall(e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return nil, false
	}
	return call, true
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label block is the goto/continue target; fall into it.
		lb := b.labelBlock(s.Label.Name)
		addEdge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit, s)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := isPanicCall(s.X); ok {
			b.jump(b.g.Exit, call)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, GoStmt, SendStmt, IncDecStmt, ...
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.takeLabel() // a label on an if only names a goto target
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	cond.Cond = s.Cond

	then := b.newBlock()
	addEdge(cond, then) // Succs[0]: true edge
	var elseBlk *Block
	if s.Else != nil {
		elseBlk = b.newBlock()
		addEdge(cond, elseBlk) // Succs[1]: false edge
	}
	after := b.newBlock()
	if elseBlk == nil {
		addEdge(cond, after) // Succs[1]: false edge
	}

	b.cur = then
	b.stmt(s.Body)
	addEdge(b.cur, after)

	if elseBlk != nil {
		b.cur = elseBlk
		b.stmt(s.Else)
		addEdge(b.cur, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.startBlock()
	body := b.newBlock()
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
	}
	after := b.newBlock()

	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		head.Cond = s.Cond
		addEdge(head, body)  // true
		addEdge(head, after) // false
	} else {
		addEdge(head, body) // `for {`: only exit is break/return
	}

	contTarget := head
	if post != nil {
		contTarget = post
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, contTarget})
	b.cur = body
	b.stmt(s.Body)
	addEdge(b.cur, contTarget)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		addEdge(b.cur, head) // back edge
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.startBlock()
	// The ranged-over expression is evaluated once at the head; the
	// key/value assignment happens implicitly per iteration.
	head.Nodes = append(head.Nodes, s.X)
	body := b.newBlock()
	after := b.newBlock()
	addEdge(head, body)  // iterate
	addEdge(head, after) // done (nondeterministic: Cond stays nil)

	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, head})
	b.cur = body
	b.stmt(s.Body)
	addEdge(b.cur, head) // back edge
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

// switchBody wires the clause blocks of a switch or type switch. The
// head (current block) branches to every clause and, when there is no
// default clause, to the after block.
func (b *builder) switchBody(body *ast.BlockStmt) {
	label := b.takeLabel()
	head := b.cur
	after := b.newBlock()

	var clauses []*ast.CaseClause
	clauseBlocks := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blk := b.newBlock()
		clauseBlocks = append(clauseBlocks, blk)
		addEdge(head, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		addEdge(head, after)
	}

	b.breaks = append(b.breaks, branchTarget{label, after})
	for i, cc := range clauses {
		b.cur = clauseBlocks[i]
		// Case expressions are evaluated when the clause is considered.
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(clauseBlocks) {
			b.fallTarget = clauseBlocks[i+1]
		} else {
			b.fallTarget = nil
		}
		b.stmtList(cc.Body)
		b.fallTarget = nil
		addEdge(b.cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	after := b.newBlock()

	if len(s.Body.List) == 0 {
		// `select {}` blocks forever: control never leaves the head.
		head.Term = s
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		blk := b.newBlock()
		addEdge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		addEdge(b.cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	// A select with no default blocks until a case fires: there is no
	// direct head→after edge, so `select {}` leaves after unreachable.
	b.cur = after
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(b.breaks, label); t != nil {
			b.jump(t, nil)
		}
	case token.CONTINUE:
		if t := b.findTarget(b.continues, label); t != nil {
			b.jump(t, nil)
		}
	case token.GOTO:
		b.jump(b.labelBlock(label), nil)
	case token.FALLTHROUGH:
		if b.fallTarget != nil {
			b.jump(b.fallTarget, nil)
		}
	}
}

// finish prunes unreachable blocks, appends the exit block, and
// assigns final indices. Reachability is computed over successor
// edges from the entry; predecessor lists are filtered to the kept
// set so no edge dangles.
func (b *builder) finish() {
	reach := map[*Block]bool{b.g.Entry: true}
	work := []*Block{b.g.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	var kept []*Block
	for _, blk := range b.blocks {
		if reach[blk] {
			kept = append(kept, blk)
		}
	}
	kept = append(kept, b.g.Exit)
	reach[b.g.Exit] = true
	for i, blk := range kept {
		blk.Index = i
		preds := blk.Preds[:0]
		for _, p := range blk.Preds {
			if reach[p] {
				preds = append(preds, p)
			}
		}
		blk.Preds = preds
	}
	// Successor edges from kept blocks always target kept blocks, but
	// an unreachable block may still point into the kept set; its
	// entries were just filtered from Preds above.
	b.g.Blocks = kept
}

// String renders the graph compactly for tests and debugging:
// one line per block with its kind, node count and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		kind := ""
		switch blk.Kind {
		case KindEntry:
			kind = " entry"
		case KindExit:
			kind = " exit"
		}
		succs := make([]string, len(blk.Succs))
		for i, s := range blk.Succs {
			succs[i] = fmt.Sprintf("%d", s.Index)
		}
		cond := ""
		if blk.Cond != nil {
			cond = " cond"
		}
		fmt.Fprintf(&sb, "b%d%s%s: %d nodes -> [%s]\n",
			blk.Index, kind, cond, len(blk.Nodes), strings.Join(succs, " "))
	}
	return sb.String()
}
