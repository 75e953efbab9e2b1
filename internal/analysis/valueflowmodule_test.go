package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/token"
	"strings"
	"testing"

	"hvac/internal/analysis/cfg"
	"hvac/internal/analysis/valueflow"
)

// TestValueFlowOverWholeModule mirrors TestCFGOverWholeModule for the
// valueflow engine: it builds def-use chains for every function and
// function literal in the module and holds them to basic sanity —
// every use's reaching definitions are definitions of the same
// variable. A def-use bug that survives the unit tests' hand-written
// shapes gets caught here by whatever real function uses the shape.
func TestValueFlowOverWholeModule(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(pkgs)
	built := 0
	for _, n := range g.Nodes() {
		if n.Body == nil {
			continue
		}
		fl := valueflow.Flow(n, cfg.New(n.Body))
		for _, u := range fl.Uses {
			for _, d := range u.Defs {
				if d.Var != u.Var {
					t.Errorf("%s: use of %s reached by a definition of %s",
						n.Name, u.Var.Name(), d.Var.Name())
				}
			}
		}
		built++
	}
	if built < 100 {
		t.Fatalf("built value flow for only %d functions; expected the whole module (loader regression?)", built)
	}
}

// TestValueFlowModuleFingerprintDeterministic loads the module twice
// from scratch and requires the same module-wide value-flow hash —
// every function's definitions, uses and each use's reaching
// definitions, by position: analyzer output ordering and CI
// reproducibility depend on it.
func TestValueFlowModuleFingerprintDeterministic(t *testing.T) {
	load := func() string {
		l, err := NewLoader("../..")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		g := BuildGraph(pkgs)
		pos := func(p token.Pos) string {
			q := g.Fset().Position(p)
			return fmt.Sprintf("%s:%d:%d", q.Filename, q.Line, q.Column)
		}
		h := sha256.New()
		for _, n := range g.Nodes() {
			if n.Body == nil {
				continue
			}
			fl := valueflow.Flow(n, cfg.New(n.Body))
			fmt.Fprintf(h, "func %s\n", n.Name)
			for _, d := range fl.Defs {
				fmt.Fprintf(h, "def %s %s\n", d.Var.Name(), pos(d.Pos))
			}
			for _, u := range fl.Uses {
				fmt.Fprintf(h, "use %s %s <-", u.Var.Name(), pos(u.Pos))
				for _, d := range u.Defs {
					fmt.Fprintf(h, " %s", pos(d.Pos))
				}
				fmt.Fprintln(h)
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	a, b := load(), load()
	if a != b {
		t.Fatalf("module value-flow fingerprint differs across loads:\n%s\n%s", a, b)
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint is not a sha256 hex digest: %q", a)
	}
}
