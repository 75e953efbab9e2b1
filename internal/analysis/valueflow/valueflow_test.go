package valueflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"hvac/internal/analysis/callgraph"
	"hvac/internal/analysis/cfg"
)

// loadSrc type-checks one source string into a callgraph over it.
func loadSrc(t *testing.T, src string) *callgraph.Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return callgraph.Build(fset, []*callgraph.Package{{
		Path: "p", Files: []*ast.File{f}, Info: info, Types: pkg,
	}})
}

func nodeNamed(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Func != nil && n.Func.Name() == name {
			return n
		}
	}
	t.Fatalf("no function %q in graph", name)
	return nil
}

const aliasSrc = `package p

type server struct {
	demandQ   chan int
	prefetchQ chan int
}

func (s *server) schedule(demand bool, v int) {
	q := s.prefetchQ
	if demand {
		q = s.demandQ
	}
	q <- v
}
`

// TestOriginsThroughBranches pins the alias resolution blockguard relies
// on: a local assigned from different fields per branch resolves to
// both fields at its use.
func TestOriginsThroughBranches(t *testing.T) {
	g := loadSrc(t, aliasSrc)
	n := nodeNamed(t, g, "schedule")
	fl := Flow(n, cfg.New(n.Body))

	var send *ast.SendStmt
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if s, ok := x.(*ast.SendStmt); ok {
			send = s
		}
		return true
	})
	if send == nil {
		t.Fatal("no send statement found")
	}
	roots := fl.Origins(send.Chan)
	names := map[string]bool{}
	for _, v := range roots {
		names[v.Name()] = true
	}
	if !names["demandQ"] || !names["prefetchQ"] || len(names) != 2 {
		t.Fatalf("Origins(q) = %v; want exactly {demandQ, prefetchQ}", names)
	}
}

// TestDefUseChains checks that a redefinition kills the earlier
// definition and that uses see exactly the reaching ones.
func TestDefUseChains(t *testing.T) {
	g := loadSrc(t, `package p
func f(a int) int {
	x := a
	x = x + 1
	return x
}
`)
	n := nodeNamed(t, g, "f")
	fl := Flow(n, cfg.New(n.Body))
	fset := g.Fset()

	// The use of x in `return x` must reach only the second definition.
	var retUse *Use
	for _, u := range fl.Uses {
		if u.Var.Name() == "x" && fset.Position(u.Pos).Line == 5 {
			retUse = u
		}
	}
	if retUse == nil {
		t.Fatal("no use of x on the return line")
	}
	if len(retUse.Defs) != 1 || fset.Position(retUse.Defs[0].Pos).Line != 4 {
		t.Fatalf("return-use of x reaches %d defs (want the line-4 one)", len(retUse.Defs))
	}
	// The parameter read feeding x's first definition reaches the entry def.
	found := false
	for _, u := range fl.Uses {
		if u.Var.Name() == "a" && len(u.Defs) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("use of parameter a does not reach its entry definition")
	}
}

const taintSrc = `package p

type frame struct{ Len int }
type sized struct{ n int }

func depth(f *frame) int { return f.Len + 1 }

func build(f *frame) *sized {
	d := depth(f)
	return &sized{n: d}
}
`

// TestTaintPropagation seeds the frame.Len field and expects taint to
// reach depth's return, build's local, and the sized.n field.
func TestTaintPropagation(t *testing.T) {
	g := loadSrc(t, taintSrc)
	var lenField, nField *types.Var
	for _, n := range g.Nodes() {
		scope := n.Pkg.Types.Scope()
		for _, name := range []string{"frame", "sized"} {
			tn := scope.Lookup(name).(*types.TypeName)
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				switch st.Field(i).Name() {
				case "Len":
					lenField = st.Field(i)
				case "n":
					nField = st.Field(i)
				}
			}
		}
		break
	}
	ta := &Taint{Graph: g, Seeds: map[*types.Var]bool{lenField: true}}
	ta.Run()
	if !ta.ReturnsTainted(nodeNamed(t, g, "depth")) {
		t.Error("depth's return should be tainted (returns f.Len + 1)")
	}
	if !ta.TaintedField(nField) {
		t.Error("sized.n should be tainted (composite literal from tainted local)")
	}
}
