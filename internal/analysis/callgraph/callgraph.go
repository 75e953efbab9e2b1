// Package callgraph builds a module-wide call graph for hvaclint's
// interprocedural analyzers, using only the standard library's go/ast and
// go/types.
//
// The graph is CHA-style (class-hierarchy analysis): a call through an
// interface method conservatively fans out to every concrete method of an
// analyzed type that implements the interface. Calls through plain
// function values stay unresolved — the analyzers that consume the graph
// are written to stay approximate in the low-false-positive direction, so
// an unresolved edge means "no claim", never "safe by omission".
//
// Nodes cover both declared functions/methods and function literals;
// literals are named after their enclosing function ("pkg.F$1", "$2", ...
// in source order) so diagnostics are stable. All node and edge slices
// are in deterministic (source) order: building the graph twice over the
// same packages yields the same graph.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one analyzed package: the subset of the loader's package
// data the graph builder needs. Keeping it a plain struct avoids an
// import cycle with the analysis driver.
type Package struct {
	// Path is the package's import path.
	Path string
	// Files are the package's parsed source files.
	Files []*ast.File
	// Info carries the type-checker's use/def/selection maps for Files.
	Info *types.Info
	// Types is the type-checked package (used to enumerate named types
	// for CHA resolution).
	Types *types.Package
}

// A Node is one function in the graph: a declared function or method
// (Func != nil) or a function literal (Lit != nil).
type Node struct {
	// Name is the stable printable name: types.Func.FullName for
	// declarations, "enclosing$N" for literals.
	Name string
	// Func is the declared function object, nil for literals.
	Func *types.Func
	// Lit is the literal, nil for declarations.
	Lit *ast.FuncLit
	// Body is the function body; nil for bodyless declarations.
	Body *ast.BlockStmt
	// Pkg is the package the node was declared in.
	Pkg *Package
	// Pos locates the declaration.
	Pos token.Pos

	out []*Edge
}

// An Edge is one call site resolved to one callee.
type Edge struct {
	// Caller is the node containing the call site.
	Caller *Node
	// Callee is the resolved target node, or nil when the target is
	// outside the analyzed packages (standard library, unresolved).
	Callee *Node
	// Target is the called function object as the type checker sees it:
	// the static callee, or the interface method for dynamic calls. Nil
	// only for direct calls of a function literal.
	Target *types.Func
	// Site is the call expression.
	Site *ast.CallExpr
	// Dynamic marks a CHA-resolved interface-call edge; the call may
	// reach any of its co-sited dynamic edges at run time.
	Dynamic bool
}

// Graph is the module call graph.
type Graph struct {
	fset   *token.FileSet
	nodes  []*Node
	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
}

// Fset returns the file set positioning the graph's nodes.
func (g *Graph) Fset() *token.FileSet { return g.fset }

// Nodes returns every node in deterministic (package, file, source)
// order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeOf returns the node for a declared function or method, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// LitNode returns the node for a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Out returns the node's call edges in source order.
func (n *Node) Out() []*Edge { return n.out }

// Transitive visits every node reachable from start over call edges
// (start included), in deterministic order. Dynamic (CHA-resolved)
// edges are followed only when dyn is true.
func (g *Graph) Transitive(start *Node, dyn bool, visit func(*Node)) {
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		visit(n)
		for _, e := range n.out {
			if e.Dynamic && !dyn {
				continue
			}
			walk(e.Callee)
		}
	}
	walk(start)
}

// Build constructs the call graph over pkgs. The packages must share
// fset and should be passed in deterministic order (the loader returns
// them sorted by import path).
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{
		fset:   fset,
		byFunc: make(map[*types.Func]*Node),
		byLit:  make(map[*ast.FuncLit]*Node),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.collectFile(pkg, f)
		}
	}
	idx := buildCHAIndex(pkgs)
	for _, n := range g.nodes {
		if n.Body != nil {
			g.addEdges(n, idx)
		}
	}
	return g
}

// collectFile adds a node for every function declaration and literal in
// the file, naming literals after their enclosing declaration.
func (g *Graph) collectFile(pkg *Package, f *ast.File) {
	litSeq := make(map[string]int)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Name: fn.FullName(), Func: fn, Body: d.Body, Pkg: pkg, Pos: d.Pos()}
			g.nodes = append(g.nodes, n)
			g.byFunc[fn] = n
			if d.Body != nil {
				g.collectLits(pkg, d.Body, n.Name, litSeq)
			}
		case *ast.GenDecl:
			// Function literals in package-level initializers.
			g.collectLits(pkg, d, pkg.Path+".init", litSeq)
		}
	}
}

// collectLits adds nodes for the function literals under root (skipping
// those nested in deeper literals, which recurse with their own name).
func (g *Graph) collectLits(pkg *Package, root ast.Node, enclosing string, seq map[string]int) {
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || n == root {
			return true
		}
		seq[enclosing]++
		node := &Node{
			Name: fmt.Sprintf("%s$%d", enclosing, seq[enclosing]),
			Lit:  lit, Body: lit.Body, Pkg: pkg, Pos: lit.Pos(),
		}
		g.nodes = append(g.nodes, node)
		g.byLit[lit] = node
		g.collectLits(pkg, lit.Body, node.Name, seq)
		return false
	})
}

// addEdges resolves every call expression in n's body (excluding nested
// literals, which own their calls) to graph edges.
func (g *Graph) addEdges(n *Node, idx *chaIndex) {
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			g.link(&Edge{Caller: n, Callee: g.byLit[fun], Site: call})
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				g.link(&Edge{Caller: n, Callee: g.byFunc[fn], Target: fn, Site: call})
			}
		case *ast.SelectorExpr:
			fn, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				// Interface method call: one static edge recording the
				// interface target, plus a CHA fan-out to every analyzed
				// implementation.
				g.link(&Edge{Caller: n, Target: fn, Site: call, Dynamic: true})
				for _, impl := range idx.implementations(fn) {
					g.link(&Edge{Caller: n, Callee: g.byFunc[impl], Target: impl, Site: call, Dynamic: true})
				}
				return true
			}
			g.link(&Edge{Caller: n, Callee: g.byFunc[fn], Target: fn, Site: call})
		}
		return true
	})
}

func (g *Graph) link(e *Edge) {
	e.Caller.out = append(e.Caller.out, e)
}

// chaIndex holds the named (non-interface) types of the analyzed
// packages, in deterministic order, for interface-call resolution.
type chaIndex struct {
	named []*types.Named
}

func buildCHAIndex(pkgs []*Package) *chaIndex {
	idx := &chaIndex{}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			idx.named = append(idx.named, named)
		}
	}
	return idx
}

// implementations returns the concrete analyzed methods an interface
// method call may dispatch to.
func (idx *chaIndex) implementations(ifaceMethod *types.Func) []*types.Func {
	recv := ifaceMethod.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range idx.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(ifaceMethod.Pkg(), ifaceMethod.Name())
		if sel == nil {
			continue
		}
		if m, ok := sel.Obj().(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}
