package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as the body of a function declaration and
// returns its block statement.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() " + body
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// checkInvariants asserts the structural invariants every graph must
// satisfy; the module-wide self-analysis test reuses the same checks
// via Check.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if err := Check(g); err != nil {
		t.Fatalf("invariants: %v\n%s", err, g)
	}
}

func build(t *testing.T, body string) *Graph {
	t.Helper()
	g := New(parseBody(t, body))
	checkInvariants(t, g)
	return g
}

func TestLinear(t *testing.T) {
	g := build(t, `{ x := 1; x++; _ = x }`)
	if len(g.Blocks) != 2 {
		t.Fatalf("want entry+exit, got:\n%s", g)
	}
	if got := len(g.Entry.Nodes); got != 3 {
		t.Fatalf("entry nodes = %d, want 3", got)
	}
	if g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry must fall into exit:\n%s", g)
	}
}

func TestIfElse(t *testing.T) {
	g := build(t, `{ if x := 1; x > 0 { x-- } else { x++ }; _ = 0 }`)
	cond := g.Entry
	if cond.Cond == nil || len(cond.Succs) != 2 {
		t.Fatalf("entry should end in a 2-way condition:\n%s", g)
	}
	// true edge is Succs[0], false edge Succs[1]; both rejoin.
	thenB, elseB := cond.Succs[0], cond.Succs[1]
	if thenB.Succs[0] != elseB.Succs[0] {
		t.Fatalf("branches must rejoin:\n%s", g)
	}
}

func TestIfReturnPrunesJoinEdge(t *testing.T) {
	g := build(t, `{ if true { return }; _ = 1 }`)
	var returns int
	for _, b := range g.Blocks {
		if _, ok := b.Term.(*ast.ReturnStmt); ok {
			returns++
		}
	}
	if returns != 1 {
		t.Fatalf("want one return terminator:\n%s", g)
	}
}

func TestForLoop(t *testing.T) {
	g := build(t, `{ for i := 0; i < 3; i++ { if i == 1 { continue }; if i == 2 { break } } }`)
	// The head must have a back edge: some block's successor list
	// includes a block with a smaller index.
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index <= b.Index && s != b {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("loop needs a back edge:\n%s", g)
	}
}

func TestInfiniteLoopExitUnreachable(t *testing.T) {
	g := build(t, `{ for { } }`)
	if len(g.Exit.Preds) != 0 {
		t.Fatalf("for{} cannot reach exit:\n%s", g)
	}
}

func TestRange(t *testing.T) {
	g := build(t, `{ s := []int{1}; for _, v := range s { _ = v } }`)
	// Range head: nil Cond, two successors (iterate / done).
	found := false
	for _, b := range g.Blocks {
		if b.Cond == nil && len(b.Succs) == 2 && b.Kind == KindBody {
			found = true
		}
	}
	if !found {
		t.Fatalf("range head with 2 succs not found:\n%s", g)
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	g := build(t, `{ switch x := 1; x { case 1: x++; fallthrough; case 2: x--; default: x = 0 }; _ = 1 }`)
	checkInvariants(t, g)
	// No default → head must edge to after; with default it must not.
	g2 := build(t, `{ switch 1 { case 1: } ; _ = 2 }`)
	head := g2.Entry
	if len(head.Succs) != 2 {
		t.Fatalf("switch head without default needs case+after succs:\n%s", g2)
	}
}

func TestSelect(t *testing.T) {
	g := build(t, `{ ch := make(chan int); select { case v := <-ch: _ = v; default: } }`)
	checkInvariants(t, g)
	g2 := build(t, `{ select {} }`)
	if len(g2.Exit.Preds) != 0 {
		t.Fatalf("select{} blocks forever; exit unreachable:\n%s", g2)
	}
}

func TestGotoAndLabels(t *testing.T) {
	g := build(t, `{ i := 0
loop:
	i++
	if i < 3 { goto loop }
	_ = i }`)
	checkInvariants(t, g)
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("goto loop needs a back edge:\n%s", g)
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	g := build(t, `{
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 1 { continue outer }
			if j == 2 { break outer }
		}
	}
	_ = 1 }`)
	checkInvariants(t, g)
}

func TestPanicTerminates(t *testing.T) {
	g := build(t, `{ if true { panic("boom") }; _ = 1 }`)
	var panics int
	for _, b := range g.Blocks {
		if c, ok := b.Term.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				panics++
			}
		}
	}
	if panics != 1 {
		t.Fatalf("want one panic terminator:\n%s", g)
	}
}

func TestUnreachableCodePruned(t *testing.T) {
	g := build(t, `{ return; _ = 1 }`) //nolint: dead code on purpose
	for _, b := range g.Blocks {
		if b.Kind == KindBody && len(b.Nodes) == 1 {
			if _, ok := b.Nodes[0].(*ast.AssignStmt); ok {
				t.Fatalf("dead assignment survived pruning:\n%s", g)
			}
		}
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	checkInvariants(t, g)
	if len(g.Blocks) != 2 {
		t.Fatalf("nil body: want entry+exit, got:\n%s", g)
	}
}

func TestDeterministic(t *testing.T) {
	const body = `{
	for i := 0; i < 4; i++ {
		switch {
		case i == 1:
			continue
		case i == 2:
			break
		}
		select {
		default:
		}
	}
	if x := 1; x > 0 {
		return
	}
}`
	if a, b := build(t, body).String(), build(t, body).String(); a != b {
		t.Fatalf("rebuild differs:\n%s\n---\n%s", a, b)
	}
}

// TestForwardFixpoint runs a tiny must-assign analysis over a diamond
// to smoke-test the dataflow engine: a variable assigned on only one
// branch must not be "definitely assigned" after the join.
func TestForwardFixpoint(t *testing.T) {
	g := build(t, `{ x := 0; if x > 0 { y := 1; _ = y } else { _ = 2 }; _ = 3 }`)

	type fact = map[string]bool // var name → definitely assigned
	fw := &Forward[fact]{
		Graph: g,
		Entry: fact{},
		Transfer: func(b *Block, in fact) fact {
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							in[id.Name] = true
						}
					}
				}
			}
			return in
		},
		Join: func(a, b fact) fact {
			for k := range a {
				if !b[k] {
					delete(a, k)
				}
			}
			return a
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Clone: func(f fact) fact {
			out := make(fact, len(f))
			for k, v := range f {
				out[k] = v
			}
			return out
		},
	}
	ins := fw.Fixpoint()
	exitIn := ins[g.Exit.Index]
	if !exitIn["x"] {
		t.Fatalf("x assigned on every path; exit fact %v", exitIn)
	}
	if exitIn["y"] {
		t.Fatalf("y assigned on one branch only; exit fact %v", exitIn)
	}
}
