package analysis

import (
	"go/ast"
	"testing"

	"hvac/internal/analysis/cfg"
)

// TestCFGOverWholeModule is the cfg package's regression net: it builds
// a control-flow graph for every function and function literal in the
// module — every real control shape the codebase uses — and holds each
// one to the structural invariants (entry/exit placement, edge
// symmetry, reachability). A builder bug that survives the unit tests'
// hand-written shapes gets caught here by whatever real function uses
// the shape.
func TestCFGOverWholeModule(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	fset := l.Fset()
	built := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				}
				if body == nil {
					return true
				}
				g := cfg.New(body)
				if err := cfg.Check(g); err != nil {
					t.Errorf("%s: %v", fset.Position(body.Pos()), err)
				}
				// Rebuilding must reproduce the graph bit-for-bit:
				// analyzer output ordering depends on it.
				if a, b := g.String(), cfg.New(body).String(); a != b {
					t.Errorf("%s: rebuild differs:\n%s\n---\n%s", fset.Position(body.Pos()), a, b)
				}
				built++
				return true
			})
		}
	}
	if built < 100 {
		t.Fatalf("built only %d CFGs; expected the whole module (loader regression?)", built)
	}
}
